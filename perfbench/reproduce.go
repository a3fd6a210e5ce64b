package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"archline/internal/experiments"
	"archline/internal/stats"
)

// childCommand makes the perfbench binary run as the reproduce child.
const childCommand = "reproduce-child"

// The reproduce pipeline runs with the configurations of the repo's own
// reproduction tests: Table I as in experiments_test.go (15 sweep
// points), Fig. 4 as in paper_claims_test.go (20 points, 3 replicates).
var (
	tableIOpts = experiments.Options{SweepPoints: 15}
	fig4Opts   = experiments.Options{SweepPoints: 20, Replicates: 3}
	// pinnedTableI is experiments_test.go's fastOpts, the configuration
	// at which the repo asserts the Table I tolerances.
	pinnedTableI = experiments.Options{Seed: 17, SweepPoints: 15}
)

// tableITolerances are the worst relative errors experiments_test.go
// accepts across the quirk-free platforms.
var tableITolerances = []struct {
	param string
	max   float64
}{
	{"tau_flop", 0.12}, {"tau_mem", 0.12}, {"pi_1", 0.12},
	{"eps_mem", 0.20}, {"delta_pi", 0.15}, {"eps_s", 0.20},
}

// Fig. 4's significant-platform count must lie in this range
// (paper_claims_test.go; the paper found 7 of 12).
const minSignificant, maxSignificant = 5, 10

// pipelineSeeds is how many pipeline seeds one run cycles through, all
// derived from --seed: the fit's cost varies from seed to seed, and a
// run that covers several reads the same from one --seed to the next.
const pipelineSeeds = 4

// measureChildren is how many children an untraced run iterates in.
const measureChildren = 3

// pipelineSeed is the k-th pipeline seed of a run.
func pipelineSeed(seed uint64, k int) uint64 { return seed*pipelineSeeds + uint64(k) }

// childReport is the reproduce child's final stdout line.
type childReport struct {
	UntracedMS []float64 `json:"untraced_ms"`
	TracedMS   []float64 `json:"traced_ms"`
	LagMS      []float64 `json:"lag_ms"`
	CPUMS      float64   `json:"cpu_ms"`
	WallMS     float64   `json:"wall_ms"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	OutBytes   []int     `json:"out_bytes"`
	Failures   []string  `json:"failures"`
	SeedMisses []string  `json:"seed_misses"`
}

// tableIMisses lists the Table I parameters whose worst error exceeds
// the tolerance.
func tableIMisses(t *experiments.TableIResult) []string {
	var out []string
	for _, tol := range tableITolerances {
		if e := t.MaxRelErr(tol.param); e > tol.max {
			out = append(out, fmt.Sprintf("%s %.3f > %.2f", tol.param, e, tol.max))
		}
	}
	return out
}

// iterate regenerates Table I and Fig. 4 once and returns both rendered
// artefacts.
func iterate(seed uint64, tr *tracer, parent int) (string, *experiments.TableIResult, *experiments.Fig4Result, error) {
	var tab *experiments.TableIResult
	var fig *experiments.Fig4Result
	var err error
	to, fo := tableIOpts, fig4Opts
	to.Seed, fo.Seed = seed, seed
	tr.span("experiments.table1", parent, func(int) { tab, err = experiments.TableI(to) })
	if err != nil {
		return "", nil, nil, err
	}
	tr.span("experiments.fig4", parent, func(int) { fig, err = experiments.Fig4(fo) })
	if err != nil {
		return "", nil, nil, err
	}
	return tab.Render() + fig.Render(), tab, fig, nil
}

// reproduceChild is the child process: it prints "ready" just before
// the first suite run, runs one untimed warm-up iteration, iterates for
// --seconds (none with 0) cycling through the run's pipeline seeds,
// checks the outputs and prints a childReport.
func reproduceChild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(childCommand, flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "pipeline seed")
	seconds := fs.Float64("seconds", 0, "seconds to iterate; 0 only reports readiness")
	traceOut := fs.String("trace-out", "", "trace the second half of the iterations into this NDJSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return err
	}
	if *seconds <= 0 {
		return nil
	}
	var tr *tracer
	if *traceOut != "" {
		tr = newTracer()
	}
	rep := childReport{}
	if _, _, _, err := iterate(pipelineSeed(*seed, 0), nil, 0); err != nil {
		return err
	}
	cpu0, err := cpuTime(os.Getpid())
	if err != nil {
		return err
	}
	start := time.Now()
	half := start.Add(time.Duration(*seconds * float64(time.Second) / 2))
	deadline := start.Add(time.Duration(*seconds * float64(time.Second)))
	var first [pipelineSeeds][32]byte
	var tab *experiments.TableIResult
	var fig *experiments.Fig4Result
	last := time.Now()
	for i := 0; i < pipelineSeeds || time.Now().Before(deadline); i++ {
		k := i % pipelineSeeds
		traced := tr != nil && time.Now().After(half)
		var itr *tracer
		if traced {
			itr = tr
		}
		t0 := time.Now()
		rep.LagMS = append(rep.LagMS, float64(t0.Sub(last))/float64(time.Millisecond))
		root := itr.begin("reproduce.iteration", 0)
		var text string
		text, tab, fig, err = iterate(pipelineSeed(*seed, k), itr, root)
		itr.finish(root)
		if err != nil {
			return err
		}
		last = time.Now()
		ms := float64(last.Sub(t0)) / float64(time.Millisecond)
		if traced {
			rep.TracedMS = append(rep.TracedMS, ms)
		} else {
			rep.UntracedMS = append(rep.UntracedMS, ms)
		}
		sum := sha256.Sum256([]byte(text))
		rep.OutBytes = append(rep.OutBytes, len(text))
		if i < pipelineSeeds {
			first[k] = sum
		} else if sum != first[k] {
			rep.Failures = append(rep.Failures, fmt.Sprintf("iteration %d: Table I/Fig. 4 output differs from iteration %d at the same seed", i, k))
		}
		// Output checks, after each iteration's clock stopped.
		if n := fig.SignificantCount(); n < minSignificant || n > maxSignificant {
			rep.Failures = append(rep.Failures, fmt.Sprintf("Fig. 4 at seed %d: %d platforms significant, want %d-%d",
				pipelineSeed(*seed, k), n, minSignificant, maxSignificant))
		}
		if i < pipelineSeeds {
			for _, m := range tableIMisses(tab) {
				rep.SeedMisses = append(rep.SeedMisses, fmt.Sprintf("seed %d: %s", pipelineSeed(*seed, k), m))
			}
		}
	}
	rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	cpu1, err := cpuTime(os.Getpid())
	if err != nil {
		return err
	}
	rep.CPUMS = float64(cpu1-cpu0) / float64(time.Millisecond)

	pinned, err := experiments.TableI(pinnedTableI)
	if err != nil {
		return err
	}
	for _, m := range tableIMisses(pinned) {
		rep.Failures = append(rep.Failures, "Table I at seed 17: "+m)
	}
	if rep.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return err
	}
	if tr != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := tr.write(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

// spawnChild runs the reproduce child and returns the time from exec to
// its "ready" line, plus its report when it iterated.
func spawnChild(e *env, seconds float64, traceOut string) (time.Duration, *childReport, error) {
	args := []string{childCommand, "--seed", strconv.FormatUint(e.opts.seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if traceOut != "" {
		args = append(args, "--trace-out", traceOut)
	}
	cmd := exec.Command(e.self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var setup time.Duration
	var lines []string
	for sc.Scan() {
		if setup == 0 && sc.Text() == "ready" {
			setup = time.Since(t0)
			continue
		}
		lines = append(lines, sc.Text())
	}
	if err := errors.Join(sc.Err(), cmd.Wait()); err != nil {
		return 0, nil, fmt.Errorf("reproduce child: %w", err)
	}
	if setup == 0 {
		return 0, nil, errors.New("reproduce child never became ready")
	}
	if seconds <= 0 {
		return setup, nil, nil
	}
	if len(lines) == 0 {
		return 0, nil, errors.New("reproduce child printed no report")
	}
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return 0, nil, fmt.Errorf("reproduce child report: %w", err)
	}
	return setup, &rep, nil
}

// runReproduce runs the reproduce workload: repeated Table I + Fig. 4
// regeneration at the given seed in a child process.
func runReproduce(e *env) (*outcome, error) {
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		s, _, err := spawnChild(e, 0, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	traceOut := ""
	if e.tracer != nil {
		traceOut = filepath.Join(filepath.Dir(e.traceTo), "reproduce-child-seed"+strconv.FormatUint(e.opts.seed, 10)+".ndjson")
		if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
			return nil, err
		}
	}
	// The untraced run splits its seconds over measureChildren children
	// and reports the median of their peak RSS: one Go process's VmHWM
	// jumps by half now and then with GC timing (14 to 23 MiB at one
	// seed), and a median of three holds still.
	children := measureChildren
	if e.tracer != nil {
		children = 1
	}
	steal := startSteal()
	rep := &childReport{}
	var rss []float64
	for i := 0; i < children; i++ {
		s, r, err := spawnChild(e, float64(e.opts.seconds)/float64(children), traceOut)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		rss = append(rss, r.PeakRSSMB)
		rep.UntracedMS = append(rep.UntracedMS, r.UntracedMS...)
		rep.TracedMS = append(rep.TracedMS, r.TracedMS...)
		rep.LagMS = append(rep.LagMS, r.LagMS...)
		rep.OutBytes = append(rep.OutBytes, r.OutBytes...)
		rep.CPUMS += r.CPUMS
		rep.WallMS += r.WallMS
		rep.Failures = append(rep.Failures, r.Failures...)
		if i == 0 {
			rep.SeedMisses = r.SeedMisses
		}
	}
	rep.PeakRSSMB = stats.Quantile(rss, 0.5)
	out0 := fmt.Sprintf("host CPU steal during the iterations: %.1f%% of busy time", 100*steal.share())
	iters := append(append([]float64(nil), rep.UntracedMS...), rep.TracedMS...)
	out := &outcome{metrics: map[string]float64{}, attempted: len(iters), failed: len(rep.Failures)}
	out.notes = append(out.notes, out0)
	for _, f := range rep.Failures {
		out.note("FAILED: %s", f)
	}
	for _, m := range rep.SeedMisses {
		out.note("Table I misses a tolerance the repo asserts at seed 17: %s", m)
	}
	if e.tracer != nil {
		data, err := e.dir("data")
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(e.daemon, "-data-dir", data)
		if err != nil {
			return nil, err
		}
		defer func() { _ = d.stop() }()
		hc := newConns(d.base, 1)[0].hc
		defer hc.CloseIdleConnections()
		m0, err := scrape(hc, d.base)
		if err != nil {
			return nil, err
		}
		err = layerMetrics(e, out, d, hc, m0, nil, tracedPhase{
			untracedP50: stats.Quantile(rep.UntracedMS, 0.5),
			tracedP50:   stats.Quantile(rep.TracedMS, 0.5),
			genLag:      rep.LagMS,
		})
		return out, err
	}
	outBytes := 0
	for _, n := range rep.OutBytes {
		outBytes += n
	}
	out.metrics["setup_s"] = quantileDur(setups, 0.5, time.Second)
	out.metrics["peak_rss_mb"] = rep.PeakRSSMB
	out.metrics["cpu_ms_per_op"] = rep.CPUMS / float64(len(iters))
	out.metrics["out_kb_per_op"] = float64(outBytes) / 1024 / float64(len(rep.OutBytes))
	out.note("reproduce seed %d: %d Table I + Fig. 4 iterations over pipeline seeds %d-%d; reproduce_s %.4f, iteration p99_ms %.1f, %.3f iterations/s",
		e.opts.seed, len(iters), pipelineSeed(e.opts.seed, 0), pipelineSeed(e.opts.seed, pipelineSeeds-1),
		stats.Quantile(iters, 0.5)/1000, stats.Quantile(iters, 0.99), float64(len(iters))/(rep.WallMS/1000))
	return out, nil
}
