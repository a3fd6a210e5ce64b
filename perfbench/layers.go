package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"archline/internal/experiments"
	"archline/internal/fit"
	"archline/internal/machine"
	"archline/internal/microbench"
	"archline/internal/model"
	"archline/internal/powermon"
	"archline/internal/registry"
	"archline/internal/scenario"
	"archline/internal/server"
	"archline/internal/sim"
	"archline/internal/stats"
	"archline/internal/units"
)

// Traced-run probe sizes.
const (
	inprocSample  = 2000    // workload requests replayed in process
	probePerRoute = 20      // wire/in-process samples of a route the workload lacks
	probePoints   = 1 << 14 // grid of the probe streams
	probePairs    = 3
	probeSeedSalt = 0x9e3779b97f4a7c15
)

// tracedPhase is what a workload's traced phase hands to layerMetrics.
type tracedPhase struct {
	untracedP50, tracedP50 float64 // op p50 without and with tracing
	genLag                 []float64
	streams                []streamObs
}

// layerMetrics fills every per-layer metric of a traced run: wire and
// in-process timings per route (probing routes the workload lacks),
// daemon counter deltas since m0, and timed calls into each layer's
// public functions.
func layerMetrics(e *env, out *outcome, d *daemon, hc *http.Client, m0 map[string]float64,
	primary []*request, tp tracedPhase) error {
	tr, met := e.tracer, out.metrics
	probe, err := wireProbe(e, out, d, &tp)
	if err != nil {
		return err
	}
	m1, err := scrape(hc, d.base)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return m1[name] - m0[name] }
	hits, misses := delta("archlined_cache_hits_total"), delta("archlined_cache_misses_total")
	met["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	met["server.model_evals_per_req"] = ratio(delta("archlined_model_evals_total"), delta("archlined_requests_total"))
	met["server.shed"] = delta("archlined_shed_total")
	met["registry.invalidations"] = delta("archlined_registry_invalidations_total")
	met["obs.agg_dropped_samples"] = delta("archlined_agg_dropped_samples_total")
	met["obs.agg_flush_age_s"] = m1["archlined_agg_flush_age_seconds"]
	for i := 0; i < 5; i++ {
		tr.span("obs.metrics_scrape", 0, func(int) { _, err = scrape(hc, d.base) })
		if err != nil {
			return err
		}
	}
	met["obs.metrics_scrape_ms"] = quantileDur(tr.durations("obs.metrics_scrape"), 0.5, time.Millisecond)
	for _, r := range routes {
		ds := tr.durations("http." + r)
		met["server.wire_p50_ms."+r] = quantileDur(ds, 0.5, time.Millisecond)
		met["server.wire_p99_ms."+r] = quantileDur(ds, 0.99, time.Millisecond)
	}

	if len(primary) > inprocSample {
		primary = primary[:inprocSample]
	}
	identity, err := inprocProbe(e, append(append([]*request(nil), primary...), probe...))
	if err != nil {
		return err
	}
	for _, r := range routes {
		met["server.inproc_us."+r] = quantileDur(tr.durations("server.inproc."+r), 0.5, time.Microsecond)
	}
	met["net.overhead_us"] = 1000*met["server.wire_p50_ms.query"] - met["server.inproc_us.query"]
	if err := probeLayers(e, met, identity); err != nil {
		return err
	}

	gz, id, bpp := streamRates(tp.streams)
	met["stream.gzip_mpts_s"], met["stream.identity_mpts_s"], met["stream.wire_bytes_per_pt"] = gz, id, bpp
	// Shares of one stream's wire time: kernel evaluation of its points
	// (identity streams) and deflating its body (gzip streams).
	met["stream.kernel_share"] = met["model.kernel_ns_per_pt"] * id * 1e6 / 1e9
	met["stream.gzip_share"] = met["gzip.ns_per_byte"] * float64(len(identity)) / streamBodyPoints(identity) * gz * 1e6 / 1e9
	met["bench.gen_lag_p99_ms"] = stats.Quantile(tp.genLag, 0.99)
	met["bench.trace_overhead"] = tp.tracedP50/tp.untracedP50 - 1
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// streamBodyPoints reads an identity stream body's point count from
// its trailer line.
func streamBodyPoints(body []byte) float64 {
	body = bytes.TrimSuffix(body, []byte("\n"))
	var trailer struct {
		Points int `json:"points"`
	}
	if json.Unmarshal(body[bytes.LastIndexByte(body, '\n')+1:], &trailer) != nil {
		return math.NaN()
	}
	return float64(trailer.Points)
}

// wireProbe sends probePerRoute requests (probePairs stream pairs) over
// the wire for every route the traced phase did not cover, so each
// route's wire metrics exist on every workload. It returns the probe
// requests for the in-process replay.
func wireProbe(e *env, out *outcome, d *daemon, tp *tracedPhase) ([]*request, error) {
	tr := e.tracer
	need := map[string]int{}
	for _, r := range routes {
		if len(tr.durations("http."+r)) == 0 {
			need[r] = probePerRoute
		}
	}
	if len(need) == 0 {
		return nil, nil
	}
	pg, err := newGenerator(e.opts.seed^probeSeedSalt, true)
	if err != nil {
		return nil, err
	}
	chk, err := newChecker(pg)
	if err != nil {
		return nil, err
	}
	c := newConns(d.base, 1)[0]
	defer c.hc.CloseIdleConnections()
	if e.opts.workload != "query-churn" {
		// Probe reads reference the churn platforms; create them.
		seeds, err := pg.seedPlatforms()
		if err != nil {
			return nil, err
		}
		for _, b := range seeds {
			res := c.send(&request{route: "seed", method: http.MethodPost, path: "/v1/platforms", body: b}, nil, 0)
			if res.status != http.StatusCreated {
				return nil, fmt.Errorf("probe: creating churn platform: HTTP %d %v", res.status, res.err)
			}
		}
	}
	var reqs []*request
	for guard := 0; guard < 1e6 && len(need) > countStreams(need); guard++ {
		r, err := pg.next()
		if err != nil {
			return nil, err
		}
		if need[r.route] > 0 {
			reqs = append(reqs, r)
			if need[r.route]--; need[r.route] == 0 {
				delete(need, r.route)
			}
		}
	}
	root := tr.begin("phase.probe", 0)
	rs := make([]result, len(reqs))
	for i, r := range reqs {
		rs[i] = c.send(r, tr, root)
	}
	if err := chk.check(rs); err != nil {
		return nil, err
	}
	if countStreams(need) > 0 {
		pairs, err := streamPairs(e.opts.seed^probeSeedSalt, probePairs, probePoints)
		if err != nil {
			return nil, err
		}
		_, n := runPairs(c, pairs, time.Time{}, tr, root, &tp.streams, func(msg string) { chk.fail("probe stream: %s", msg) })
		chk.attempted += n
		for _, p := range pairs {
			reqs = append(reqs, p[0], p[1])
		}
	}
	tr.finish(root)
	finish(out, chk, false)
	return reqs, nil
}

func countStreams(need map[string]int) int {
	n := 0
	for _, r := range []string{"stream_gzip", "stream_identity"} {
		if need[r] > 0 {
			n++
		}
	}
	return n
}

// inprocProbe replays reqs through server.New(cfg).Handler().ServeHTTP
// with the daemon's default configuration, timing each call, and
// returns the first identity stream body it produced.
func inprocProbe(e *env, reqs []*request) ([]byte, error) {
	dir, err := e.dir("inproc")
	if err != nil {
		return nil, err
	}
	h := server.New(server.Config{DataDir: dir, LogWriter: io.Discard}).Handler()
	g, err := newGenerator(e.opts.seed, true)
	if err != nil {
		return nil, err
	}
	seeds, err := g.seedPlatforms()
	if err != nil {
		return nil, err
	}
	serve := func(r *request) *httptest.ResponseRecorder {
		req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
		if r.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if r.gzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, b := range seeds {
		if rec := serve(&request{method: http.MethodPost, path: "/v1/platforms", body: b}); rec.Code != http.StatusCreated {
			return nil, fmt.Errorf("in-process: creating churn platform: HTTP %d", rec.Code)
		}
	}
	tr := e.tracer
	root := tr.begin("phase.inproc", 0)
	defer tr.finish(root)
	var identity []byte
	for _, r := range reqs {
		var rec *httptest.ResponseRecorder
		tr.span("server.inproc."+r.route, root, func(int) { rec = serve(r) })
		if rec.Code >= 300 {
			return nil, fmt.Errorf("in-process %s %s: HTTP %d: %s", r.method, r.path, rec.Code, rec.Body.Bytes())
		}
		if r.route == "stream_identity" && identity == nil {
			identity = rec.Body.Bytes()
		}
	}
	return identity, nil
}

// probeLayers times direct calls into the registry, machine, model,
// gzip, scenario, microbench, sim, powermon, fit, stats and pool layers.
func probeLayers(e *env, met map[string]float64, identity []byte) error {
	tr := e.tracer
	seed := e.opts.seed
	root := tr.begin("phase.layers", 0)
	defer tr.finish(root)
	med := func(name string, unit time.Duration) float64 {
		return quantileDur(tr.durations(name), 0.5, unit)
	}
	var err error

	// registry: Put (create, then update) with fsync, recovery, Get.
	dir, err := e.dir("registry")
	if err != nil {
		return err
	}
	reg, err := registry.Open(dir, 0)
	if err != nil {
		return err
	}
	g, err := newGenerator(seed, true)
	if err != nil {
		return err
	}
	// Every churn platform is created, then updated with a new pi1.
	for _, scale := range []float64{1, 1.01} {
		for _, doc := range g.churnDoc {
			doc = shallowCopy(doc)
			doc["pi1_w"] = doc["pi1_w"].(float64) * scale
			b, err := json.Marshal(doc)
			if err != nil {
				return err
			}
			p, err := machine.FromJSON(bytes.NewReader(b))
			if err != nil {
				return err
			}
			tr.span("registry.put", root, func(int) { _, _, err = reg.Put(p) })
			if err != nil {
				return err
			}
		}
	}
	met["registry.put_ms"] = med("registry.put", time.Millisecond)
	for i := 0; i < 3; i++ {
		tr.span("registry.recovery", root, func(int) { _, err = registry.Open(dir, 0) })
		if err != nil {
			return err
		}
	}
	met["registry.recovery_ms"] = med("registry.recovery", time.Millisecond)
	const gets = 200_000
	d := tr.span("registry.get_loop", root, func(int) {
		for i := 0; i < gets && err == nil; i++ {
			_, err = reg.Get(g.churnIDs[i%len(g.churnIDs)])
		}
	})
	if err != nil {
		return err
	}
	met["registry.get_ns"] = float64(d) / gets

	// machine.FromJSON on the inline platform bodies.
	for rep := 0; rep < 20; rep++ {
		for _, b := range g.inline {
			tr.span("machine.fromjson", root, func(int) { _, err = machine.FromJSON(bytes.NewReader(b)) })
			if err != nil {
				return err
			}
		}
	}
	met["machine.fromjson_us"] = med("machine.fromjson", time.Microsecond)

	// model: kernel construction and the streaming sweep loop.
	all := machine.All()
	const kernels = 100_000
	var sink float64
	d = tr.span("model.newkernel_loop", root, func(int) {
		for i := 0; i < kernels; i++ {
			k := model.NewKernel(all[i%len(all)].Single)
			sink += k.FlopRateAt(1)
		}
	})
	met["model.newkernel_ns"] = float64(d) / kernels
	buf := make([]model.Point, 0, chunkPoints)
	l0, l1 := math.Log(0.125), math.Log(512)
	for _, p := range all {
		k := model.NewKernel(p.Single)
		tr.span("model.kernel_sweep", root, func(int) {
			for start := 0; start < streamPoints; start += chunkPoints {
				buf = k.AppendLogSpace(buf[:0], l0, l1, start, min(start+chunkPoints, streamPoints), streamPoints)
			}
		})
	}
	met["model.kernel_ns_per_pt"] = med("model.kernel_sweep", time.Nanosecond) / streamPoints

	// gzip at the daemon's level (gzip.NewWriter: DefaultCompression),
	// flushed per NDJSON line as the stream handler does.
	if len(identity) == 0 {
		return fmt.Errorf("no identity stream body was captured")
	}
	lines := bytes.SplitAfter(identity, []byte("\n"))
	for rep := 0; rep < 3; rep++ {
		tr.span("gzip.stream_body", root, func(int) {
			zw := gzip.NewWriter(io.Discard)
			for _, l := range lines {
				if _, err = zw.Write(l); err == nil {
					err = zw.Flush()
				}
			}
			if cerr := zw.Close(); err == nil {
				err = cerr
			}
		})
		if err != nil {
			return err
		}
	}
	met["gzip.ns_per_byte"] = med("gzip.stream_body", time.Nanosecond) / float64(len(identity))

	// scenario: the compare and throttle computations behind
	// /v1/compare and /v1/whatif.
	grid := model.LogSpace(0.125, 512, 65)
	for i, a := range all {
		b := all[(i+1)%len(all)]
		tr.span("scenario.compare", root, func(int) {
			_, err = scenario.CompareBlocks(a.Name, a.Single, b.Name, b.Single, 0.125, 512, 65)
		})
		if err != nil {
			return err
		}
		tr.span("scenario.throttle", root, func(int) {
			_, err = scenario.ThrottleSweep(a.Single, []float64{1, 0.5, 0.25, 0.125}, grid)
		})
		if err != nil {
			return err
		}
	}
	met["scenario.compare_us"] = med("scenario.compare", time.Microsecond)
	met["scenario.throttle_us"] = med("scenario.throttle", time.Microsecond)

	// microbench, sim and fit per platform, at Table I's configuration.
	cfg := microbench.DefaultConfig()
	cfg.SweepPoints = tableIOpts.SweepPoints
	simOpts := sim.Options{Seed: seed}
	for _, p := range all {
		var res *microbench.Result
		tr.span("microbench.run."+string(p.ID), root, func(int) { res, err = microbench.Run(p, cfg, simOpts) })
		if err != nil {
			return err
		}
		met["microbench.run_ms."+string(p.ID)] = med("microbench.run."+string(p.ID), time.Millisecond)
		tr.span("fit.platform", root, func(int) { _, err = fit.Platform(res, fit.Options{Seed: seed}) })
		if err != nil {
			return err
		}
		ks, err := microbench.BuildSuite(p, cfg)
		if err != nil {
			return err
		}
		s := sim.New(p, simOpts)
		for _, k := range ks {
			class := ""
			for _, c := range simKernelClasses {
				if strings.HasPrefix(k.Name, c) {
					class = c
				}
			}
			tr.span("sim.measure."+class, root, func(int) { _, err = s.Measure(k) })
			if err != nil {
				return err
			}
		}
	}
	met["fit.platform_ms"] = med("fit.platform", time.Millisecond)
	for _, c := range simKernelClasses {
		met["sim.measure_us."+c] = med("sim.measure."+c, time.Microsecond)
	}

	// powermon: one 0.25 s recording on each of the paper's probe setups.
	rng := stats.NewStream(seed, "perfbench-powermon")
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		for _, m := range []*powermon.Meter{powermon.MobileBoardMeter(), powermon.CPUSystemMeter(), powermon.PCIeGPUMeter()} {
			var t *powermon.Trace
			tr.span("powermon.record", root, func(int) { t, err = m.Record(powermon.Constant(units.Power(50)), 0.25, rng) })
			if err != nil {
				return err
			}
			samples = append(samples, float64(t.SampleCount()))
		}
	}
	met["powermon.record_us"] = med("powermon.record", time.Microsecond)
	met["powermon.samples_per_trace"] = stats.Quantile(samples, 0.5)

	// stats: the K-S test on each Fig. 4 platform's error samples.
	fo := fig4Opts
	fo.Seed = seed
	fig, err := experiments.Fig4(fo)
	if err != nil {
		return err
	}
	for _, p := range fig.Platforms {
		tr.span("stats.ks", root, func(int) { _, err = stats.KolmogorovSmirnov(p.UncappedErrs, p.CappedErrs) })
		if err != nil {
			return err
		}
	}
	met["stats.ks_us"] = med("stats.ks", time.Microsecond)

	// pool: Table I at workers=1 against workers=0 (one per CPU),
	// alternated twice so neither side runs only cold.
	to := tableIOpts
	to.Seed = seed
	for rep := 0; rep < 2; rep++ {
		for _, w := range []int{0, 1} {
			o := to
			o.Workers = w
			tr.span(fmt.Sprintf("experiments.table1.workers%d", w), root, func(int) { _, err = experiments.TableI(o) })
			if err != nil {
				return err
			}
		}
	}
	serial := med("experiments.table1.workers1", time.Millisecond)
	parallel := med("experiments.table1.workers0", time.Millisecond)
	met["pool.speedup"] = serial / parallel
	if math.IsNaN(sink) {
		return fmt.Errorf("kernel evaluated to NaN")
	}
	return nil
}
