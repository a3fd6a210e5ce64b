package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"time"

	"archline/internal/machine"
	"archline/internal/registry"
	"archline/internal/stats"
)

// Query workload settings.
const (
	// fixedRate is the open-loop offered load the latency metrics are
	// measured at.
	fixedRate = 1000.0
	// latencyLimitMS is the median read-latency limit max_rps is the
	// highest ladder rate to meet. It limits the median, not the p99:
	// on a shared 2-vCPU host, CPU steal stalls put the p99 above 5 ms
	// at every offered rate down to 200 req/s, while the median stays
	// under 1 ms until the daemon saturates and then climbs within one
	// step as the backlog grows.
	latencyLimitMS = 5.0
	// stepSeconds is how long each rate-ladder step offers its load.
	stepSeconds = 0.5
	// maxStepSteal is the host steal share above which a failing ladder
	// step is repeated (twice at most).
	maxStepSteal = 0.1
	// setupRepeats is how many extra daemon starts setup_s is the
	// median over.
	setupRepeats = 10
)

func isRead(r *request) bool { return r.route != "upload" }

// runQuery runs query-hot (churn false) or query-churn (churn true):
// a warm-up second, a fixed-rate phase at fixedRate, then a rate ladder
// for max_rps. The traced run splits the fixed-rate phase into an
// untraced and a traced half and replaces the ladder with layer probes.
func runQuery(e *env, churn bool) (*outcome, error) {
	g, err := newGenerator(e.opts.seed, churn)
	if err != nil {
		return nil, err
	}
	chk, err := newChecker(g)
	if err != nil {
		return nil, err
	}
	data, err := e.dir("data")
	if err != nil {
		return nil, err
	}
	if churn {
		if err := seedRegistry(data, g); err != nil {
			return nil, err
		}
	}
	secs := float64(e.opts.seconds)
	fixedSecs := math.Max(1, 0.5*secs)
	warm, err := g.take(int(fixedRate))
	if err != nil {
		return nil, err
	}
	fixed, err := g.take(int(fixedRate * fixedSecs))
	if err != nil {
		return nil, err
	}

	setup, d, err := measureSetup(setupRepeats, e.daemon, "-data-dir", data)
	if err != nil {
		return nil, err
	}
	defer func() { _ = d.stop() }()
	cs := newConns(d.base, conns)
	defer closeConns(cs)
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()

	out := &outcome{metrics: map[string]float64{}}
	rs := openLoop(cs, warm, fixedRate, nil, 0)
	if err := chk.check(rs); err != nil {
		return nil, err
	}
	if e.tracer != nil {
		if err := traceQuery(e, out, d, hc, cs, chk, fixed); err != nil {
			return nil, err
		}
		return finish(out, chk, churn), nil
	}

	m0, err := scrape(hc, d.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	steal := startSteal()
	rs = openLoop(cs, fixed, fixedRate, nil, 0)
	stolen := steal.share()
	cpu1, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	m1, err := scrape(hc, d.base)
	if err != nil {
		return nil, err
	}
	if err := chk.check(rs); err != nil {
		return nil, err
	}
	reads := latencies(rs, isRead)
	wire := 0
	for i := range rs {
		wire += rs[i].wireBytes
	}
	out.metrics["setup_s"] = setup
	out.metrics["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(rs))
	out.metrics["out_kb_per_op"] = float64(wire) / 1024 / float64(len(rs))

	ladderBudget := time.Duration((secs - 1 - fixedSecs) * float64(time.Second))
	best, steps, err := ladder(cs, g, chk, ladderBudget)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	out.metrics["peak_rss_mb"] = rss

	delta := func(name string) float64 { return m1[name] - m0[name] }
	hits, misses := delta("archlined_cache_hits_total"), delta("archlined_cache_misses_total")
	out.note("%s seed %d: %d reads at %.0f req/s, timed from due: p50_ms %.4f, p99_ms %.4f (lowest per-second quantiles); pooled p50 %.4f ms, p99 %.4f ms; generator lag p99 %.3f ms",
		e.opts.workload, e.opts.seed, len(reads), fixedRate, bestWindow(rs, 0.5), bestWindow(rs, 0.99),
		stats.Quantile(reads, 0.5), stats.Quantile(reads, 0.99), stats.Quantile(genLag(rs), 0.99))
	out.note("host CPU steal during the fixed-rate phase: %.1f%% of busy time", 100*stolen)
	out.note("cache hit share %.3f (%.0f hits, %.0f misses), model evals %.0f, registry invalidations %.0f",
		hits/(hits+misses), hits, misses, delta("archlined_model_evals_total"),
		delta("archlined_registry_invalidations_total"))
	if churn {
		writes := latencies(rs, func(r *request) bool { return !isRead(r) })
		out.note("write_p99_ms %.3f over %d uploads", stats.Quantile(writes, 0.99), len(writes))
		if delta("archlined_registry_invalidations_total") <= 0 {
			chk.fail("query-churn: uploads invalidated nothing")
		}
	}
	out.note("max_rps %.0f (median read latency <= %.0f ms over each half-second step and its last quarter); ladder rate:p50/last-quarter p50%s",
		best, latencyLimitMS, steps)
	return finish(out, chk, churn), nil
}

// traceQuery is the traced run of a query workload: the fixed-rate
// phase's first half untraced, its second half traced, then the layer
// probes.
func traceQuery(e *env, out *outcome, d *daemon, hc *http.Client, cs []*conn, chk *checker, fixed []*request) error {
	half := len(fixed) / 2
	rsU := openLoop(cs, fixed[:half], fixedRate, nil, 0)
	m0, err := scrape(hc, d.base)
	if err != nil {
		return err
	}
	root := e.tracer.begin("phase.traced", 0)
	rsT := openLoop(cs, fixed[half:], fixedRate, e.tracer, root)
	e.tracer.finish(root)
	if err := chk.check(rsU); err != nil {
		return err
	}
	if err := chk.check(rsT); err != nil {
		return err
	}
	return layerMetrics(e, out, d, hc, m0, fixed, tracedPhase{
		untracedP50: bestWindow(rsU, 0.5),
		tracedP50:   bestWindow(rsT, 0.5),
		genLag:      append(genLag(rsU), genLag(rsT)...),
	})
}

// finish folds the checker's counts into the outcome.
func finish(out *outcome, chk *checker, churn bool) *outcome {
	out.attempted += chk.attempted
	out.failed += chk.failed
	if churn {
		out.note("stale reads: %d", chk.stale)
	}
	for _, r := range chk.reasons {
		out.note("FAILED: %s", r)
	}
	return out
}

// seedRegistry commits version 1 of every churn platform to the data
// directory, so the daemon's startup includes registry recovery.
func seedRegistry(dir string, g *generator) error {
	reg, err := registry.Open(dir, 0)
	if err != nil {
		return err
	}
	bodies, err := g.seedPlatforms()
	if err != nil {
		return err
	}
	for _, b := range bodies {
		p, err := machine.FromJSON(bytes.NewReader(b))
		if err != nil {
			return err
		}
		if _, _, err := reg.Put(p); err != nil {
			return err
		}
	}
	return nil
}

// ladder finds the highest offered rate at which the daemon keeps up:
// a half-second step passes when the median read latency, over the whole
// step and over its last quarter, stays within latencyLimitMS, so the
// backlog did not grow by more than that much work. One pass doubles the
// rate from fixedRate (halving it if fixedRate fails) until a step
// fails, then bisects the bracket geometrically to under 6%, below the
// 10% resolution the metric promises. Passes repeat while the budget
// lasts; the result is their median.
func ladder(cs []*conn, g *generator, chk *checker, budget time.Duration) (float64, string, error) {
	deadline := time.Now().Add(budget)
	stepDur := time.Duration(stepSeconds * float64(time.Second))
	trail := ""
	step := func(rate float64) (bool, error) {
		for try := 0; ; try++ {
			reqs, err := g.take(int(rate * stepSeconds))
			if err != nil {
				return false, err
			}
			steal := startSteal()
			rs := openLoop(cs, reqs, rate, nil, 0)
			stolen := steal.share()
			if err := chk.check(rs); err != nil {
				return false, err
			}
			p50 := stats.Quantile(latencies(rs, isRead), 0.5)
			tail := stats.Quantile(latencies(rs[len(rs)*3/4:], isRead), 0.5)
			trail += fmt.Sprintf(" %.0f:%.1f/%.1fms", rate, p50, tail)
			pass := p50 <= latencyLimitMS && tail <= latencyLimitMS
			// Steal only ever slows the daemon down: a pass is conclusive,
			// a failure while the host took over 10% of the CPU is not.
			if pass || stolen <= maxStepSteal || try == 2 {
				return pass, nil
			}
			trail += fmt.Sprintf("(steal %.0f%%)", 100*stolen)
		}
	}
	// A pass takes about eight steps.
	var results []float64
	for len(results) == 0 || time.Now().Add(8*stepDur).Before(deadline) {
		lo, hi := 0.0, 0.0 // highest passing and lowest failing rate
		for rate := fixedRate; (lo == 0 || hi == 0) && rate >= 1; {
			pass, err := step(rate)
			if err != nil {
				return 0, "", err
			}
			if pass {
				lo, rate = rate, rate*2
			} else {
				hi, rate = rate, rate/2
			}
		}
		for lo > 0 && hi/lo > 1.06 {
			mid := math.Sqrt(lo * hi)
			pass, err := step(mid)
			if err != nil {
				return 0, "", err
			}
			if pass {
				lo = mid
			} else {
				hi = mid
			}
		}
		results = append(results, lo)
		trail += fmt.Sprintf(" => %.0f;", lo)
	}
	return stats.Quantile(results, 0.5), trail, nil
}

// bestWindow returns the lowest per-window q-quantile of read latency
// over one-second windows (by due time). CPU steal on a shared host only
// ever adds latency, and it comes and goes within seconds, so the
// least-disturbed second is the repeatable estimate of the daemon's own
// latency; a pooled quantile mostly measures the neighbours.
func bestWindow(rs []result, q float64) float64 {
	if len(rs) == 0 {
		return math.NaN()
	}
	t0 := rs[0].due
	var windows [][]float64
	for i := range rs {
		if !isRead(rs[i].req) {
			continue
		}
		w := int(rs[i].due.Sub(t0) / time.Second)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], rs[i].latency())
	}
	best := math.Inf(1)
	for _, w := range windows {
		if len(w) > 0 {
			best = math.Min(best, stats.Quantile(w, q))
		}
	}
	return best
}
