// Package loadgen drives synthetic traffic against a running archlined
// daemon. It exists so latency budgets can be enforced in CI and so
// capacity questions ("what does this box serve at p99 < 50ms?") are
// answerable with a committed, reproducible tool instead of an ad-hoc
// curl loop.
//
// The generator draws a deterministic request stream from a seeded
// stats.Stream: operations come from a weighted mix, platform ids from
// a zipf-ranked distribution (a few hot platforms take most of the
// traffic, a long tail keeps the cache honest, the statistical shape of
// real dashboard traffic), and query intensities from a quantized
// log-spaced grid so repeated draws actually hit the response cache.
// Two pacing disciplines are supported:
//
//   - closed loop (Rate == 0): Workers goroutines issue requests
//     back-to-back, measuring the daemon's saturation throughput;
//   - open loop (Rate > 0): a pacer dispatches requests on a fixed
//     schedule regardless of completions, measuring latency at a given
//     offered load — the discipline that exposes queueing collapse,
//     which closed-loop generators structurally cannot see.
//
// Responses are classified by status code and the JSON error envelope's
// code field, so load shedding (429 overloaded), job-queue sheds (429
// job_queue_full), breaker trips (503 breaker_open), and drains (503
// draining) are counted as themselves rather than smeared into a
// generic error bucket. Latency quantiles are computed with
// internal/stats.Quantile, the same estimator as the paper's boxplots.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"archline/internal/machine"
	"archline/internal/stats"
)

// Op names, also the JSON keys of the mix flag.
const (
	OpQuery     = "query"
	OpRoofline  = "roofline"
	OpCompare   = "compare"
	OpWhatIf    = "whatif"
	OpBatch     = "batch"
	OpPlatforms = "platforms"
	OpFit       = "fit"
	OpUpload    = "upload"
)

// DefaultMix is the standing query mix: read-heavy model queries with a
// sprinkle of list traffic, no async jobs and no uploads (those are
// opt-in slices — a fit job costs seconds of daemon CPU and uploads
// need a daemon with -data-dir).
func DefaultMix() map[string]float64 {
	return map[string]float64{
		OpQuery:     45,
		OpRoofline:  15,
		OpCompare:   10,
		OpWhatIf:    10,
		OpBatch:     10,
		OpPlatforms: 10,
		OpFit:       0,
		OpUpload:    0,
	}
}

// Config tunes one load run.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Duration bounds the run. Zero means 5s.
	Duration time.Duration
	// Workers is the closed-loop concurrency (and the open-loop
	// executor-pool floor). Zero means 4.
	Workers int
	// Rate, when positive, switches to open-loop pacing at this many
	// requests per second.
	Rate float64
	// MaxOutstanding caps concurrently executing requests in open-loop
	// mode; dispatches past the cap are counted Skipped instead of
	// queueing client-side (which would silently turn the open loop
	// closed). Zero means max(64, 4*Rate).
	MaxOutstanding int
	// Seed drives every random draw. Same seed, same request stream.
	Seed uint64
	// Mix maps op names to weights; zero-weight ops never fire. Nil
	// means DefaultMix. Unknown names are an error.
	Mix map[string]float64
	// Platforms is the platform-id pool, hottest first (zipf rank 0 is
	// the most queried). Nil means the Table I built-ins.
	Platforms []string
	// Timeout bounds each request. Zero means 5s.
	Timeout time.Duration
	// MaxRequests, when positive, stops the stream after that many
	// requests even if Duration has not elapsed (tests use this for
	// exact determinism).
	MaxRequests int
}

// withDefaults fills zero fields and validates the mix.
func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("loadgen: BaseURL is required")
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Mix == nil {
		c.Mix = DefaultMix()
	}
	known := DefaultMix()
	// Sorted iteration: the float sum must not depend on map order.
	ops := make([]string, 0, len(c.Mix))
	for op := range c.Mix {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	total := 0.0
	for _, op := range ops {
		w := c.Mix[op]
		if _, ok := known[op]; !ok {
			return c, fmt.Errorf("loadgen: unknown op %q in mix", op)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return c, fmt.Errorf("loadgen: op %q has weight %v; want finite and >= 0", op, w)
		}
		total += w
	}
	if total <= 0 {
		return c, fmt.Errorf("loadgen: mix has no positive weights")
	}
	if len(c.Platforms) == 0 {
		for _, p := range machine.All() {
			c.Platforms = append(c.Platforms, string(p.ID))
		}
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 64
		if n := int(4 * c.Rate); n > c.MaxOutstanding {
			c.MaxOutstanding = n
		}
	}
	return c, nil
}

// ParseMix parses a "query=50,roofline=20" flag value over DefaultMix:
// named ops are overridden, unnamed ops keep their default weight.
func ParseMix(s string) (map[string]float64, error) {
	mix := DefaultMix()
	if s == "" {
		return mix, nil
	}
	for _, part := range splitComma(s) {
		name, val, ok := cutEq(part)
		if !ok {
			return nil, fmt.Errorf("loadgen: mix entry %q is not name=weight", part)
		}
		if _, known := mix[name]; !known {
			return nil, fmt.Errorf("loadgen: unknown op %q in mix", name)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: mix weight for %q: %v", name, err)
		}
		mix[name] = w
	}
	return mix, nil
}

func splitComma(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != ',' {
			i++
		}
		out = append(out, s[:i])
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}

func cutEq(s string) (name, val string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '=' {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}

// intensityGrid is the quantized log-spaced intensity pool, 1/8 to 512
// flop/byte in 64 steps: wide enough to cross every platform's balance
// points, quantized so repeated draws share response-cache slots.
var intensityGrid = func() []float64 {
	out := make([]float64, 64)
	for i := range out {
		out[i] = 0.125 * math.Pow(2, float64(i)*13.0/63.0)
	}
	return out
}()

// pointsGrid quantizes sweep sizes the same way.
var pointsGrid = []int{17, 33, 65}

// spec is one generated request, fully determined by the seed.
type spec struct {
	op     string
	method string
	path   string
	body   []byte
}

// generator derives the deterministic request stream.
type generator struct {
	rng       *stats.Stream
	ops       []string  // positive-weight ops, name-sorted
	cum       []float64 // cumulative weights over ops
	platforms []string
	zipf      *zipfPicker
	uploads   [][]byte // pre-rendered upload bodies, cycled through
	uploadN   int
}

func newGenerator(cfg Config) (*generator, error) {
	g := &generator{
		rng:       stats.NewStream(cfg.Seed, "loadgen"),
		platforms: cfg.Platforms,
		zipf:      newZipfPicker(len(cfg.Platforms), 1.1),
	}
	// Name-sorted op order makes the cumulative table (and so the whole
	// stream) independent of map iteration order.
	names := make([]string, 0, len(cfg.Mix))
	for op := range cfg.Mix {
		names = append(names, op)
	}
	sort.Strings(names)
	total := 0.0
	for _, op := range names {
		if cfg.Mix[op] <= 0 {
			continue
		}
		total += cfg.Mix[op]
		g.ops = append(g.ops, op)
		g.cum = append(g.cum, total)
	}
	if cfg.Mix[OpUpload] > 0 {
		if err := g.renderUploads(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// renderUploads pre-builds a small pool of upload bodies: Table I
// platforms re-identified as loadgen-<n>, so a run cycles through
// creates and re-uploads (re-uploads are the interesting case — they
// bump the version and so retire every cached key for the platform).
func (g *generator) renderUploads() error {
	all := machine.All()
	for i := 0; i < 8; i++ {
		canon, err := machine.Canonical(all[i%len(all)])
		if err != nil {
			return fmt.Errorf("loadgen: rendering upload body: %v", err)
		}
		var doc map[string]any
		if err := json.Unmarshal(canon, &doc); err != nil {
			return fmt.Errorf("loadgen: re-keying upload body: %v", err)
		}
		doc["id"] = "loadgen-" + strconv.Itoa(i)
		doc["name"] = "loadgen synthetic " + strconv.Itoa(i)
		body, err := json.Marshal(doc)
		if err != nil {
			return fmt.Errorf("loadgen: re-keying upload body: %v", err)
		}
		g.uploads = append(g.uploads, body)
	}
	return nil
}

// pickOp draws an op from the weighted mix.
func (g *generator) pickOp() string {
	x := g.rng.Float64() * g.cum[len(g.cum)-1]
	for i, c := range g.cum {
		if x < c {
			return g.ops[i]
		}
	}
	return g.ops[len(g.ops)-1]
}

// platform draws a platform id, zipf-ranked.
func (g *generator) platform() string {
	return g.platforms[g.zipf.pick(g.rng)]
}

// intensity draws from the quantized grid.
func (g *generator) intensity() float64 {
	return intensityGrid[g.rng.Intn(len(intensityGrid))]
}

// queryItem builds one /v1/query body value.
func (g *generator) queryItem() map[string]any {
	return map[string]any{
		"platform_id": g.platform(),
		"intensity":   g.intensity(),
	}
}

// next builds the next request spec.
func (g *generator) next() spec {
	op := g.pickOp()
	switch op {
	case OpQuery:
		return jsonSpec(op, "/v1/query", g.queryItem())
	case OpRoofline:
		pts := pointsGrid[g.rng.Intn(len(pointsGrid))]
		return spec{op: op, method: http.MethodGet,
			path: "/v1/platforms/" + g.platform() + "/roofline?points=" + strconv.Itoa(pts)}
	case OpCompare:
		return jsonSpec(op, "/v1/compare", map[string]any{
			"a":      map[string]any{"platform_id": g.platform()},
			"b":      map[string]any{"platform_id": g.platform()},
			"points": pointsGrid[g.rng.Intn(len(pointsGrid))],
		})
	case OpWhatIf:
		return jsonSpec(op, "/v1/whatif", map[string]any{
			"kind":     "throttle",
			"platform": map[string]any{"platform_id": g.platform()},
		})
	case OpBatch:
		n := 3 + g.rng.Intn(6)
		items := make([]map[string]any, n)
		for i := range items {
			items[i] = g.queryItem()
		}
		return jsonSpec(op, "/v1/batch", map[string]any{"items": items})
	case OpPlatforms:
		return spec{op: op, method: http.MethodGet, path: "/v1/platforms"}
	case OpFit:
		// The cheapest fit that still exercises the whole async path.
		return jsonSpec(op, "/v1/fit", map[string]any{
			"platform_id":  g.platform(),
			"repeats":      1,
			"sweep_points": 16,
		})
	case OpUpload:
		g.uploadN++
		return spec{op: op, method: http.MethodPost, path: "/v1/platforms",
			body: g.uploads[g.uploadN%len(g.uploads)]}
	}
	panic("loadgen: unreachable op " + op)
}

// jsonSpec marshals a POST body. The maps marshal key-sorted
// (encoding/json), so bodies are byte-deterministic per draw.
func jsonSpec(op, path string, v any) spec {
	body, err := json.Marshal(v)
	if err != nil {
		// Everything marshalled here is maps of strings and floats.
		panic("loadgen: marshal: " + err.Error())
	}
	return spec{op: op, method: http.MethodPost, path: path, body: body}
}

// result is one finished request's classification.
type result struct {
	op    string
	class string
	ms    float64
}

// Response classes.
const (
	classOK        = "ok"
	classClientErr = "client_error"
	classServerErr = "server_error"
	classShed      = "shed"
	classJobsShed  = "jobs_shed"
	classBreaker   = "breaker_open"
	classDraining  = "draining"
	classTransport = "transport_error"
	// classCanceled marks requests aborted because the run's own clock
	// expired mid-flight — a harness artifact, not a server outcome, so
	// it is reported separately and never counts against a budget.
	classCanceled = "canceled"
)

// classify maps a response to its class; code is the error envelope's
// code field ("" when absent or unparsable).
func classify(status int, code string) string {
	switch {
	case status >= 200 && status < 300:
		return classOK
	case status == http.StatusTooManyRequests && code == "job_queue_full":
		return classJobsShed
	case status == http.StatusTooManyRequests:
		return classShed
	case status == http.StatusServiceUnavailable && code == "breaker_open":
		return classBreaker
	case status == http.StatusServiceUnavailable && code == "draining":
		return classDraining
	case status >= 500:
		return classServerErr
	default:
		return classClientErr
	}
}

// Run executes one load run and reports. The context cancels early
// (the run otherwise stops at cfg.Duration or cfg.MaxRequests).
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Report{}, err
	}
	gen, err := newGenerator(cfg)
	if err != nil {
		return Report{}, err
	}
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers + cfg.MaxOutstanding,
			MaxIdleConnsPerHost: cfg.Workers + cfg.MaxOutstanding,
		},
	}
	defer client.CloseIdleConnections()

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	// The generator goroutine owns the RNG; workers own the wire. The
	// spec sequence is therefore deterministic per seed regardless of
	// worker scheduling — only the assignment of specs to workers varies.
	specs := make(chan spec, cfg.Workers)
	go func() {
		defer close(specs)
		for n := 0; cfg.MaxRequests <= 0 || n < cfg.MaxRequests; n++ {
			sp := gen.next()
			select {
			case specs <- sp:
			case <-ctx.Done():
				return
			}
		}
	}()

	results := make(chan result, 256)
	var skipped int64
	var wg sync.WaitGroup
	start := time.Now()
	// The collector must be draining before the first dispatch: a full
	// results buffer would otherwise block executors and silently turn
	// the open loop closed.
	done := make(chan Report, 1)
	go func() { done <- collect(results, start) }()
	if cfg.Rate > 0 {
		skipped = runOpenLoop(ctx, cfg, client, specs, results, &wg)
	} else {
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sp := range specs {
					// The generator may have left buffered specs behind when
					// the deadline hit; issuing them would only manufacture
					// canceled results.
					if ctx.Err() != nil {
						return
					}
					results <- execute(ctx, client, cfg.BaseURL, sp)
				}
			}()
		}
	}
	wg.Wait()
	close(results)
	rep := <-done
	rep.Skipped = skipped
	return rep, nil
}

// runOpenLoop paces dispatches at cfg.Rate per second. Each dispatch
// runs in its own goroutine (completions do not gate the schedule); the
// MaxOutstanding semaphore only protects the client from unbounded
// goroutine growth, and a dispatch that cannot get a slot is counted
// skipped, not queued. Returns the skip count after all dispatches
// finish (wg tracks the in-flight executors).
func runOpenLoop(ctx context.Context, cfg Config, client *http.Client,
	specs <-chan spec, results chan<- result, wg *sync.WaitGroup) int64 {
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	sem := make(chan struct{}, cfg.MaxOutstanding)
	var skipped int64
	for {
		select {
		case <-ctx.Done():
			return skipped
		case <-tick.C:
			sp, ok := <-specs
			if !ok {
				return skipped
			}
			select {
			case sem <- struct{}{}:
			default:
				skipped++
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				results <- execute(ctx, client, cfg.BaseURL, sp)
			}()
		}
	}
}

// execute performs one request and classifies the outcome.
func execute(ctx context.Context, client *http.Client, base string, sp spec) result {
	var body io.Reader
	if sp.body != nil {
		body = bytes.NewReader(sp.body)
	}
	req, err := http.NewRequestWithContext(ctx, sp.method, base+sp.path, body)
	if err != nil {
		return result{op: sp.op, class: classTransport}
	}
	if sp.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		// The run deadline aborting an in-flight request is the harness
		// stopping, not the daemon failing; a per-request timeout with the
		// run clock still live stays a transport error.
		if ctx.Err() != nil {
			return result{op: sp.op, class: classCanceled, ms: ms}
		}
		return result{op: sp.op, class: classTransport, ms: ms}
	}
	code := ""
	if resp.StatusCode >= 400 {
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if jerr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&env); jerr == nil {
			code = env.Error.Code
		}
	}
	// Drain so the connection is reusable.
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return result{op: sp.op, class: classify(resp.StatusCode, code), ms: ms}
}
