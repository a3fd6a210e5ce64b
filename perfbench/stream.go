package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"archline/internal/stats"
)

// Sweep-stream settings.
const (
	// streamPoints is the grid size of every sweep-stream request.
	streamPoints = 1 << 18
	// chunkPoints is the daemon's default NDJSON chunk size.
	chunkPoints = 512
	// minPairs is how many pairs a run measures even when --seconds is
	// shorter than their duration.
	minPairs = 3
)

// streamPairs derives n sweep requests from the seed, each as a gzip
// and an identity request for the same body. Platforms cycle through
// the Table I built-ins in a seeded order; the intensity bounds are
// continuous draws.
func streamPairs(seed uint64, n, points int) ([][2]*request, error) {
	rng := stats.NewStream(seed, "perfbench-stream")
	ids := builtinIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	out := make([][2]*request, n)
	for i := range out {
		body, err := json.Marshal(map[string]any{
			"platform_id": ids[i%len(ids)],
			"points":      points,
			"imin":        0.125 * math.Pow(2, 2*rng.Float64()),
			"imax":        64 * math.Pow(2, 3*rng.Float64()),
		})
		if err != nil {
			return nil, err
		}
		for k, gz := range []bool{true, false} {
			route := "stream_identity"
			if gz {
				route = "stream_gzip"
			}
			out[i][k] = &request{route: route, method: http.MethodPost, path: "/v1/sweep/stream",
				body: body, gzip: gz, points: points}
		}
	}
	return out, nil
}

// checkPair verifies one gzip+identity pair after both finished: both
// 200, the gzip body decompresses to the identity body byte for byte,
// and the identity body ends in a done:true trailer with the expected
// chunk and point counts. It returns "" when the pair is correct.
func checkPair(gz, id *result) string {
	for _, r := range []*result{gz, id} {
		if !r.ok() {
			return fmt.Sprintf("%s: HTTP %d, %v", r.req.route, r.status, r.err)
		}
	}
	if gz.encoding != "gzip" || id.encoding != "" {
		return fmt.Sprintf("encodings %q/%q, want gzip/identity", gz.encoding, id.encoding)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz.body))
	if err != nil {
		return "gzip stream: " + err.Error()
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		return "gzip stream: " + err.Error()
	}
	if !bytes.Equal(plain, id.body) {
		return "decompressed gzip stream differs from the identity stream"
	}
	body := bytes.TrimSuffix(id.body, []byte("\n"))
	last := body[bytes.LastIndexByte(body, '\n')+1:]
	var trailer struct {
		Done   bool `json:"done"`
		Chunks int  `json:"chunks"`
		Points int  `json:"points"`
	}
	n := id.req.points
	if err := json.Unmarshal(last, &trailer); err != nil || !trailer.Done ||
		trailer.Points != n || trailer.Chunks != (n+chunkPoints-1)/chunkPoints {
		return fmt.Sprintf("stream trailer %q, want done with %d points", last, n)
	}
	return ""
}

// streamObs is one stream's wire measurement.
type streamObs struct {
	gzip   bool
	points int
	wire   time.Duration
	bytes  int
	lag    time.Duration // from when the benchmark was ready to the send
}

// runPairs sends the pairs back to back over c, checking each pair
// after it finishes, until the deadline passes (at least minPairs).
// It returns the pair latencies and how many pairs it attempted.
func runPairs(c *conn, pairs [][2]*request, deadline time.Time, tr *tracer, parent int,
	obs *[]streamObs, fail func(string)) ([]float64, int) {
	var lat []float64
	attempted := 0
	for i, p := range pairs {
		if i >= minPairs && time.Now().After(deadline) {
			break
		}
		rs := [2]result{c.send(p[0], tr, parent), c.send(p[1], tr, parent)}
		attempted++
		lat = append(lat, rs[0].latency()+rs[1].latency())
		if msg := checkPair(&rs[0], &rs[1]); msg != "" {
			fail(msg)
			continue
		}
		for k := range rs {
			*obs = append(*obs, streamObs{gzip: p[k].gzip, points: p[k].points, wire: rs[k].wire(),
				bytes: rs[k].wireBytes, lag: rs[k].sent.Sub(rs[k].due)})
		}
	}
	return lat, attempted
}

// streamRates summarises stream observations: median points per second
// (millions) for gzip and identity streams, and median gzip bytes on the
// wire per point.
func streamRates(obs []streamObs) (gzMpts, idMpts, bytesPerPt float64) {
	var gz, id, bpp []float64
	for _, o := range obs {
		mpts := float64(o.points) / o.wire.Seconds() / 1e6
		if o.gzip {
			gz = append(gz, mpts)
			bpp = append(bpp, float64(o.bytes)/float64(o.points))
		} else {
			id = append(id, mpts)
		}
	}
	return stats.Quantile(gz, 0.5), stats.Quantile(id, 0.5), stats.Quantile(bpp, 0.5)
}

// runSweep runs sweep-stream: closed loop over one connection, back to
// back POST /v1/sweep/stream pairs of 2^18 points, gzip then identity.
func runSweep(e *env) (*outcome, error) {
	pairs, err := streamPairs(e.opts.seed, 4*e.opts.seconds+minPairs, streamPoints)
	if err != nil {
		return nil, err
	}
	warm, err := streamPairs(e.opts.seed+1, 1, streamPoints/16)
	if err != nil {
		return nil, err
	}
	data, err := e.dir("data")
	if err != nil {
		return nil, err
	}
	setup, d, err := measureSetup(setupRepeats, e.daemon, "-data-dir", data)
	if err != nil {
		return nil, err
	}
	defer func() { _ = d.stop() }()
	cs := newConns(d.base, 1)
	defer closeConns(cs)
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()

	out := &outcome{metrics: map[string]float64{}}
	var failures []string
	fail := func(msg string) {
		out.failed++
		failures = append(failures, msg)
	}
	var obs []streamObs
	_, n := runPairs(cs[0], warm, time.Time{}, nil, 0, &obs, fail)
	out.attempted += n
	obs = obs[:0]
	secs := time.Duration(e.opts.seconds) * time.Second

	if e.tracer != nil {
		// Half the pairs untraced, half traced, for bench.trace_overhead.
		latU, n := runPairs(cs[0], pairs, time.Now().Add(secs/2), nil, 0, &obs, fail)
		out.attempted += n
		m0, err := scrape(hc, d.base)
		if err != nil {
			return nil, err
		}
		root := e.tracer.begin("phase.traced", 0)
		latT, n := runPairs(cs[0], pairs[len(latU):], time.Now().Add(secs/2), e.tracer, root, &obs, fail)
		e.tracer.finish(root)
		out.attempted += n
		var primary []*request
		for _, p := range pairs[:2] {
			primary = append(primary, p[0], p[1])
		}
		var lags []float64
		for _, o := range obs {
			lags = append(lags, float64(o.lag)/float64(time.Millisecond))
		}
		err = layerMetrics(e, out, d, hc, m0, primary, tracedPhase{
			untracedP50: stats.Quantile(latU, 0.5),
			tracedP50:   stats.Quantile(latT, 0.5),
			genLag:      lags,
			streams:     obs,
		})
		if err != nil {
			return nil, err
		}
	} else {
		cpu0, err := cpuTime(d.pid())
		if err != nil {
			return nil, err
		}
		steal := startSteal()
		lat, n := runPairs(cs[0], pairs, time.Now().Add(secs), nil, 0, &obs, fail)
		out.note("host CPU steal during the measured pairs: %.1f%% of busy time", 100*steal.share())
		out.attempted += n
		cpu1, err := cpuTime(d.pid())
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(d.pid())
		if err != nil {
			return nil, err
		}
		wire := 0
		for _, o := range obs {
			wire += o.bytes
		}
		out.metrics["setup_s"] = setup
		out.metrics["peak_rss_mb"] = rss
		out.metrics["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(lat))
		out.metrics["out_kb_per_op"] = float64(wire) / 1024 / float64(len(obs)/2)
		gz, id, bpp := streamRates(obs)
		out.note("sweep-stream seed %d: %d pairs of %d-point streams; pair latency p50_ms %.1f, p99_ms %.1f",
			e.opts.seed, len(lat), streamPoints, stats.Quantile(lat, 0.5), stats.Quantile(lat, 0.99))
		out.note("stream_gzip_mpts_s %.4f, stream_identity_mpts_s %.4f, stream_wire_bytes_per_pt %.4f",
			gz, id, bpp)
	}
	for _, f := range failures {
		out.note("FAILED: %s", f)
	}
	return out, nil
}
