// benchgate enforces the committed performance budget against a
// benchjson snapshot: per-benchmark allocs/op ceilings, ceilings on the
// ns/op ratio of two benchmarks, plus a parallel-speedup floor that
// arms itself only on hosts with enough cores to make the comparison
// meaningful. It is the teeth behind the bench trajectory —
// scripts/bench.sh records where the numbers are, benchgate fails the
// build when they regress past the budget.
//
// Usage:
//
//	go run ./scripts/benchgate -bench BENCH_engine.json -budget scripts/bench_budget.json
//
// Budget schema (scripts/bench_budget.json):
//
//   - allocs_ceilings: map of benchmark name to maximum allocs/op. A
//     key matches a record's name exactly, or as a prefix when the
//     name continues with '(' — so "BenchmarkSuiteRun/workers=max"
//     covers the NumCPU-stamped "BenchmarkSuiteRun/workers=max(8)".
//     Every ceiling must find at least one record: a gate that cannot
//     see its benchmark must fail, not silently pass.
//   - ratio_ceilings: list of {num, den, max}, requiring
//     ns/op(num) / ns/op(den) <= max, with keys matched as above and
//     each side's median taken over its records (go test -count). A
//     ratio of two benchmarks run on one host cancels the host's speed,
//     so unlike a raw ns/op ceiling it holds across machines. Either
//     side missing fails, as a missing allocs ceiling does.
//   - speedup_floor: requires ns/op(base) / ns/op(wide) >= min_ratio,
//     but only when the snapshot's host ran min_num_cpu or more CPUs;
//     below that the floor stays dormant (a 1-CPU box cannot speed up).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

// benchRecord mirrors the benchjson record fields the gate reads.
type benchRecord struct {
	Package string             `json:"package"`
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchDoc mirrors the benchjson document shape.
type benchDoc struct {
	Host struct {
		NumCPU int `json:"num_cpu"`
	} `json:"host"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// speedupFloor is the parallel-speedup contract.
type speedupFloor struct {
	MinNumCPU int     `json:"min_num_cpu"`
	Base      string  `json:"base"`
	Wide      string  `json:"wide"`
	MinRatio  float64 `json:"min_ratio"`
}

// ratioCeiling bounds ns/op(Num) / ns/op(Den) from above.
type ratioCeiling struct {
	Num string  `json:"num"`
	Den string  `json:"den"`
	Max float64 `json:"max"`
}

// budget is the committed regression budget.
type budget struct {
	AllocsCeilings map[string]float64 `json:"allocs_ceilings"`
	RatioCeilings  []ratioCeiling     `json:"ratio_ceilings"`
	SpeedupFloor   *speedupFloor      `json:"speedup_floor"`
}

// nameMatches reports whether a budget key addresses a benchmark name:
// exact, or a prefix whose continuation is a parenthesized qualifier
// (the host-dependent "(NumCPU)" stamp).
func nameMatches(key, name string) bool {
	if name == key {
		return true
	}
	return strings.HasPrefix(name, key) && name[len(key)] == '('
}

// findAll returns the records a budget key addresses.
func findAll(doc *benchDoc, key string) []benchRecord {
	var out []benchRecord
	for _, rec := range doc.Benchmarks {
		if nameMatches(key, rec.Name) {
			out = append(out, rec)
		}
	}
	return out
}

// medianNs is the median ns/op over recs, or 0 when any record lacks
// the metric.
func medianNs(recs []benchRecord) float64 {
	ns := make([]float64, 0, len(recs))
	for _, rec := range recs {
		v, ok := rec.Metrics["ns/op"]
		if !ok {
			return 0
		}
		ns = append(ns, v)
	}
	slices.Sort(ns)
	if n := len(ns); n%2 == 0 {
		return (ns[n/2-1] + ns[n/2]) / 2
	}
	return ns[len(ns)/2]
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

func run(benchPath, budgetPath string) error {
	var doc benchDoc
	if err := loadJSON(benchPath, &doc); err != nil {
		return err
	}
	var bud budget
	if err := loadJSON(budgetPath, &bud); err != nil {
		return err
	}

	passes, violations := gate(&doc, &bud, benchPath)
	for _, line := range passes {
		fmt.Println("benchgate: " + line)
	}
	for _, line := range violations {
		fmt.Fprintln(os.Stderr, "benchgate: "+line)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d budget violation(s)", len(violations))
	}
	return nil
}

// gate checks doc, read from benchPath, against bud and returns one
// report line per check: the passes and the violations.
func gate(doc *benchDoc, bud *budget, benchPath string) (passes, violations []string) {
	pass := func(format string, args ...any) { passes = append(passes, fmt.Sprintf(format, args...)) }
	fail := func(format string, args ...any) { violations = append(violations, fmt.Sprintf(format, args...)) }
	// Ceilings sort by key for stable output; a map range would shuffle
	// the report between runs.
	keys := make([]string, 0, len(bud.AllocsCeilings))
	for k := range bud.AllocsCeilings {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, key := range keys {
		ceiling := bud.AllocsCeilings[key]
		recs := findAll(doc, key)
		if len(recs) == 0 {
			fail("FAIL %s: no such benchmark in %s", key, benchPath)
			continue
		}
		for _, rec := range recs {
			got, ok := rec.Metrics["allocs/op"]
			if !ok {
				fail("FAIL %s: no allocs/op metric (run with -benchmem)", rec.Name)
				continue
			}
			if got > ceiling {
				fail("FAIL %s: %.0f allocs/op exceeds ceiling %.0f",
					rec.Name, got, ceiling)
				continue
			}
			pass("ok %s: %.0f allocs/op <= %.0f", rec.Name, got, ceiling)
		}
	}

	for _, rc := range bud.RatioCeilings {
		num, den := findAll(doc, rc.Num), findAll(doc, rc.Den)
		if len(num) == 0 || len(den) == 0 {
			fail("FAIL ratio %s / %s: %q or %q missing from %s",
				rc.Num, rc.Den, rc.Num, rc.Den, benchPath)
			continue
		}
		n, d := medianNs(num), medianNs(den)
		if !(n > 0) || !(d > 0) {
			fail("FAIL ratio %s / %s: ns/op %g / %g", rc.Num, rc.Den, n, d)
			continue
		}
		if ratio := n / d; ratio > rc.Max {
			fail("FAIL ratio %s / %s = %.2f exceeds ceiling %.2f",
				rc.Num, rc.Den, ratio, rc.Max)
		} else {
			pass("ok ratio %s / %s = %.2f <= %.2f", rc.Num, rc.Den, ratio, rc.Max)
		}
	}

	if sf := bud.SpeedupFloor; sf != nil {
		if doc.Host.NumCPU < sf.MinNumCPU {
			pass("speedup floor dormant (host has %d CPUs, floor arms at %d)",
				doc.Host.NumCPU, sf.MinNumCPU)
		} else {
			base, wide := findAll(doc, sf.Base), findAll(doc, sf.Wide)
			switch {
			case len(base) == 0 || len(wide) == 0:
				fail("FAIL speedup floor: %q or %q missing from %s",
					sf.Base, sf.Wide, benchPath)
			default:
				bNs, wNs := base[0].Metrics["ns/op"], wide[0].Metrics["ns/op"]
				if wNs <= 0 {
					fail("FAIL speedup floor: %s reports ns/op %g",
						sf.Wide, wNs)
				} else if ratio := bNs / wNs; ratio < sf.MinRatio {
					fail("FAIL speedup floor: %s/%s = %.2fx, floor %.2fx",
						sf.Base, sf.Wide, ratio, sf.MinRatio)
				} else {
					pass("ok speedup %s vs %s: %.2fx >= %.2fx",
						sf.Base, sf.Wide, ratio, sf.MinRatio)
				}
			}
		}
	}

	return passes, violations
}

func main() {
	bench := flag.String("bench", "BENCH_engine.json", "benchjson snapshot to gate")
	budgetPath := flag.String("budget", "scripts/bench_budget.json", "committed budget file")
	flag.Parse()
	if err := run(*bench, *budgetPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
