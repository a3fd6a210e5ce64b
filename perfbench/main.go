// Command perfbench is archline's end-to-end benchmark. It runs one named
// workload against a freshly built archlined daemon (or, for reproduce,
// against the Table I / Fig. 4 experiments in a child process), checks that
// every answer is correct, and prints one JSON result line:
//
//	perfbench --root <repo> --workload query-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run, whose spans
// are also written to .bench_build/traces/. perfbench/run.sh builds the
// binaries and invokes this command; README.md maps every metric to the
// layer expected to move it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload and gated by BENCHMARK.json's bounds. An "op" is a request on
// the query workloads, a gzip+identity stream pair on sweep-stream, and
// one Table I + Fig. 4 iteration on reproduce. Wall-clock latency and
// throughput (p50_ms, p99_ms, max_rps and the workload-specific
// rates) are printed in each run's report lines instead: CPU steal on
// the shared 2-vCPU host moves them by more than any bound from one run
// to the next, while CPU time, memory and bytes hold (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"out_kb_per_op", "KiB"},
}

// routes are the HTTP routes the traced run times in process and on the
// wire. stream_gzip and stream_identity are POST /v1/sweep/stream with
// and without gzip accepted.
var routes = []string{
	"query", "roofline", "compare", "whatif", "batch", "platforms", "upload",
	"stream_gzip", "stream_identity",
}

// simKernelClasses group the microbenchmark suite's kernels by name
// prefix for sim.measure_us.<class>.
var simKernelClasses = []string{"sweep-sp", "sweep-dp", "l1", "l2", "chase"}

// perLayer are the metrics of a traced run, reported by every workload.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, r := range routes {
		out = append(out,
			metricDef{"server.inproc_us." + r, "us"},
			metricDef{"server.wire_p50_ms." + r, "ms"},
			metricDef{"server.wire_p99_ms." + r, "ms"})
	}
	out = append(out,
		metricDef{"net.overhead_us", "us"},
		metricDef{"server.cache_hit_ratio", "ratio"},
		metricDef{"server.model_evals_per_req", "count"},
		metricDef{"server.shed", "count"},
		metricDef{"registry.put_ms", "ms"},
		metricDef{"registry.get_ns", "ns"},
		metricDef{"registry.recovery_ms", "ms"},
		metricDef{"registry.invalidations", "count"},
		metricDef{"machine.fromjson_us", "us"},
		metricDef{"model.newkernel_ns", "ns"},
		metricDef{"model.kernel_ns_per_pt", "ns"},
		metricDef{"gzip.ns_per_byte", "ns"},
		metricDef{"stream.kernel_share", "ratio"},
		metricDef{"stream.gzip_share", "ratio"},
		metricDef{"stream.gzip_mpts_s", "Mpt/s"},
		metricDef{"stream.identity_mpts_s", "Mpt/s"},
		metricDef{"stream.wire_bytes_per_pt", "B"},
		metricDef{"scenario.compare_us", "us"},
		metricDef{"scenario.throttle_us", "us"},
		metricDef{"obs.metrics_scrape_ms", "ms"},
		metricDef{"obs.agg_dropped_samples", "count"},
		metricDef{"obs.agg_flush_age_s", "s"},
	)
	for _, id := range builtinIDs() {
		out = append(out, metricDef{"microbench.run_ms." + id, "ms"})
	}
	for _, c := range simKernelClasses {
		out = append(out, metricDef{"sim.measure_us." + c, "us"})
	}
	out = append(out,
		metricDef{"powermon.record_us", "us"},
		metricDef{"powermon.samples_per_trace", "count"},
		metricDef{"fit.platform_ms", "ms"},
		metricDef{"stats.ks_us", "us"},
		metricDef{"pool.speedup", "ratio"},
		metricDef{"bench.gen_lag_p99_ms", "ms"},
		metricDef{"bench.trace_overhead", "ratio"},
	)
	return out
}()

// options are the command-line settings of one run.
type options struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// outcome is what a workload run hands back: operations attempted and
// failed (a failed output check counts), metric values by name, and
// human-readable report lines printed before the result.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"query-hot":    func(e *env) (*outcome, error) { return runQuery(e, false) },
	"query-churn":  func(e *env) (*outcome, error) { return runQuery(e, true) },
	"sweep-stream": runSweep,
	"reproduce":    runReproduce,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == childCommand {
		if err := reproduceChild(args[1:], stdout); err != nil {
			_, _ = fmt.Fprintln(stderr, "perfbench child:", err)
			return 1
		}
		return 0
	}
	var opts options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.root, "root", ".", "repository root holding .bench_build/")
	fs.StringVar(&opts.workload, "workload", "", "workload: query-hot, query-churn, sweep-stream or reproduce")
	fs.Uint64Var(&opts.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&opts.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts.trace = traceFlag == 1
	runner, ok := workloads[opts.workload]
	if !ok || opts.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		_, _ = fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	e, err := newEnv(opts)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer e.close()
	out, err := runner(e)
	if err == nil {
		err = e.writeTrace()
	}
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := resultLine(out, opts.trace)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range out.notes {
		if _, err := fmt.Fprintln(stdout, n); err != nil {
			return 1
		}
	}
	if _, err := fmt.Fprintln(stdout, string(line)); err != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultLine renders the final JSON object. Every metric of the run's
// kind must be present: a missing one is a benchmark bug, not a zero.
func resultLine(out *outcome, trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
}

// env is the per-run environment: binaries, scratch directory, tracer.
type env struct {
	opts    options
	daemon  string // archlined binary
	self    string // this binary, re-executed as the reproduce child
	work    string // scratch directory, removed at exit
	tracer  *tracer
	traceTo string
}

func newEnv(opts options) (*env, error) {
	root, err := filepath.Abs(opts.root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	daemon := filepath.Join(build, "archlined")
	if _, err := os.Stat(daemon); err != nil {
		return nil, fmt.Errorf("archlined is not built (run perfbench/run.sh): %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	runs := filepath.Join(build, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(runs, opts.workload+"-")
	if err != nil {
		return nil, err
	}
	e := &env{opts: opts, daemon: daemon, self: self, work: work}
	if opts.trace {
		e.tracer = newTracer()
		e.traceTo = filepath.Join(build, "traces",
			opts.workload+"-seed"+strconv.FormatUint(opts.seed, 10)+".ndjson")
	}
	return e, nil
}

func (e *env) close() { _ = os.RemoveAll(e.work) }

// writeTrace writes the traced run's spans as NDJSON.
func (e *env) writeTrace() error {
	if e.tracer == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(e.traceTo), 0o755); err != nil {
		return err
	}
	f, err := os.Create(e.traceTo)
	if err != nil {
		return err
	}
	if err := e.tracer.write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// dir makes a fresh subdirectory of the run's scratch directory.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.work, name)
	return d, os.MkdirAll(d, 0o755)
}
