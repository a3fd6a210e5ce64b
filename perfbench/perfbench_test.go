package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the perfbench binary when
// the reproduce workload re-executes itself as its child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childCommand {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// streamBytes renders the first n requests of a generator as bytes.
func streamBytes(t *testing.T, seed uint64, churn bool, n int) []byte {
	t.Helper()
	g, err := newGenerator(seed, churn)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.take(n)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&b, "%s %s %s\n", r.method, r.path, r.body)
	}
	pairs, err := streamPairs(seed, 4, streamPoints)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		fmt.Fprintf(&b, "%s %s\n", p[0].body, p[1].body)
	}
	return b.Bytes()
}

func TestRequestStreamIsSeedDeterministic(t *testing.T) {
	for _, churn := range []bool{false, true} {
		a := streamBytes(t, 7, churn, 3000)
		if b := streamBytes(t, 7, churn, 3000); !bytes.Equal(a, b) {
			t.Errorf("churn=%v: seed 7 gave two different request streams", churn)
		}
		if c := streamBytes(t, 8, churn, 3000); bytes.Equal(a, c) {
			t.Errorf("churn=%v: seeds 7 and 8 gave the same request stream", churn)
		}
	}
}

func TestRouteMix(t *testing.T) {
	g, err := newGenerator(3, true)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.take(20000)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	inline := 0
	for _, r := range reqs {
		counts[r.route]++
		for _, it := range r.items {
			if it.ref.id == "" {
				inline++
			}
		}
	}
	share := func(route string) float64 { return float64(counts[route]) / float64(len(reqs)) }
	if s := share("upload"); s < 0.04 || s > 0.06 {
		t.Errorf("upload share %.3f, want about 0.05", s)
	}
	if s := share("query") / (1 - share("upload")); s < 0.42 || s > 0.48 {
		t.Errorf("query share of reads %.3f, want about 0.45", s)
	}
	if inline == 0 {
		t.Error("query-churn sent no inline platforms")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and
// traced, against a freshly built archlined, and checks that the result
// line carries every metric of its kind with its unit and no failure.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds archlined and runs every workload")
	}
	root := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(root, ".bench_build", "archlined"), "./cmd/archlined")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building archlined: %v\n%s", err, out)
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--root", root, "--workload", w, "--seed", "5", "--seconds", "2", "--trace", trace}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
			})
		}
	}
}
