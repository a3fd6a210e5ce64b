package server

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"archline/internal/jobs"
	"archline/internal/obs"
	"archline/internal/registry"
)

// Metrics is the daemon's metrics surface, built on the shared
// obs.Registry: request counts by endpoint and status, the latency
// histogram (the one latency record; quantiles come from
// histogram_quantile over its buckets), per-platform query counters,
// cache hit ratio, model-evaluation count, in-flight gauge, resilience
// counters, and the obs layer's own self-metrics. Render emits a
// Prometheus-style text exposition with # HELP / # TYPE headers. The
// clock is injectable so the uptime line is deterministic under test.
//
// Every recording writes straight into its registry family, so each
// scrape is exact.
type Metrics struct {
	start time.Time
	now   func() time.Time

	reg             *obs.Registry
	requests        *obs.CounterVec
	duration        *obs.HistogramVec
	platformQueries *obs.CounterVec

	cacheHits   obs.Counter
	cacheMisses obs.Counter
	modelEvals  obs.Counter
	shed        obs.Counter
	chaos       obs.Counter
	inFlight    obs.Gauge

	// breakerProbe, when set, reports the circuit breaker's state and
	// open count for the exposition.
	breakerProbe func() (breakerState, int64)
	// tracerProbe, when set, reports the span tracer's self-counters.
	tracerProbe func() obs.TracerStats
	// logProbe, when set, reports the structured-log record count.
	logProbe func() int64
	// jobsProbe, when set, reports the async job engine's gauges and
	// counters for the archlined_jobs_* families.
	jobsProbe func() jobs.Stats
	// registryProbe, when set, reports the platform registry's upload,
	// invalidation, quarantine, and shard-occupancy figures for the
	// archlined_registry_* families.
	registryProbe func() registry.Stats
}

// NewMetrics builds an empty registry on the wall clock.
func NewMetrics() *Metrics { return newMetrics(time.Now) }

// newMetrics builds the registry on an injectable clock, registering
// every family the daemon exposes.
func newMetrics(now func() time.Time) *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		start: now(),
		now:   now,
		reg:   reg,
	}
	m.requests = reg.Counter("archlined_requests_total",
		"finished requests by route pattern and HTTP status", "endpoint", "status")
	m.duration = reg.Histogram("archlined_request_duration_seconds",
		"request latency distribution by route pattern", obs.DefBuckets, "endpoint")
	m.cacheHits = reg.Counter("archlined_cache_hits_total", "response cache hits").With()
	m.cacheMisses = reg.Counter("archlined_cache_misses_total", "response cache misses").With()
	m.modelEvals = reg.Counter("archlined_model_evals_total",
		"cache-missed model evaluations").With()
	m.shed = reg.Counter("archlined_shed_total", "requests refused by load shedding").With()
	m.chaos = reg.Counter("archlined_chaos_injected_total",
		"chaos-injected synthetic failures").With()
	m.inFlight = reg.Gauge("archlined_in_flight_requests",
		"requests currently being served").With()
	m.platformQueries = reg.Counter("archlined_platform_queries_total",
		`model queries by platform id ("inline" is a caller-supplied platform)`, "platform")

	reg.Collect("archlined_uptime_seconds", "seconds since the daemon started", "gauge", nil,
		func(emit func([]string, float64)) {
			emit(nil, math.Round(m.now().Sub(m.start).Seconds()*1000)/1000)
		})
	reg.Collect("archlined_cache_hit_ratio", "cache hits over cache lookups", "gauge", nil,
		func(emit func([]string, float64)) {
			hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
			ratio := 0.0
			if hits+misses > 0 {
				ratio = hits / (hits + misses)
			}
			emit(nil, math.Round(ratio*1e4)/1e4)
		})
	reg.Collect("archlined_breaker_state",
		"circuit breaker state (0 closed, 1 half-open, 2 open)", "gauge", nil,
		func(emit func([]string, float64)) {
			if m.breakerProbe != nil {
				state, _ := m.breakerProbe()
				emit(nil, float64(state))
			}
		})
	reg.Collect("archlined_breaker_opens_total",
		"times the circuit breaker has opened", "counter", nil,
		func(emit func([]string, float64)) {
			if m.breakerProbe != nil {
				_, opens := m.breakerProbe()
				emit(nil, float64(opens))
			}
		})
	reg.Collect("obs_spans_started_total", "spans started by the tracer", "counter", nil,
		func(emit func([]string, float64)) {
			if m.tracerProbe != nil {
				emit(nil, float64(m.tracerProbe().Started))
			}
		})
	reg.Collect("obs_spans_ended_total", "spans ended and exported by the tracer", "counter", nil,
		func(emit func([]string, float64)) {
			if m.tracerProbe != nil {
				emit(nil, float64(m.tracerProbe().Ended))
			}
		})
	reg.Collect("obs_span_events_total", "events recorded on spans", "counter", nil,
		func(emit func([]string, float64)) {
			if m.tracerProbe != nil {
				emit(nil, float64(m.tracerProbe().Events))
			}
		})
	reg.Collect("obs_log_records_total", "structured log records emitted", "counter", nil,
		func(emit func([]string, float64)) {
			if m.logProbe != nil {
				emit(nil, float64(m.logProbe()))
			}
		})
	reg.Collect("archlined_jobs_active", "async jobs currently queued or running", "gauge",
		[]string{"state"}, func(emit func([]string, float64)) {
			if m.jobsProbe == nil {
				return
			}
			st := m.jobsProbe()
			// Emitted in the jobs.States order (the live states first),
			// never from a map, so renders stay byte-stable.
			emit([]string{jobs.Queued.String()}, float64(st.Queued))
			emit([]string{jobs.Running.String()}, float64(st.Running))
		})
	reg.Collect("archlined_jobs_finished_total", "async jobs by terminal state", "counter",
		[]string{"state"}, func(emit func([]string, float64)) {
			if m.jobsProbe == nil {
				return
			}
			st := m.jobsProbe()
			emit([]string{jobs.Done.String()}, float64(st.Done))
			emit([]string{jobs.Failed.String()}, float64(st.Failed))
			emit([]string{jobs.Canceled.String()}, float64(st.Canceled))
		})
	reg.Collect("archlined_jobs_submitted_total", "async jobs accepted by the engine", "counter", nil,
		func(emit func([]string, float64)) {
			if m.jobsProbe != nil {
				emit(nil, float64(m.jobsProbe().Submitted))
			}
		})
	reg.Collect("archlined_jobs_shed_total", "async job submits refused by the queue cap", "counter", nil,
		func(emit func([]string, float64)) {
			if m.jobsProbe != nil {
				emit(nil, float64(m.jobsProbe().Shed))
			}
		})
	reg.Collect("archlined_registry_uploads_total",
		"platform uploads committed (creates and re-uploads)", "counter", nil,
		func(emit func([]string, float64)) {
			if m.registryProbe != nil {
				emit(nil, float64(m.registryProbe().Uploads))
			}
		})
	reg.Collect("archlined_registry_invalidations_total",
		"platform version bumps (content-changing re-uploads and deletes) that retire cached responses",
		"counter", nil,
		func(emit func([]string, float64)) {
			if m.registryProbe != nil {
				emit(nil, float64(m.registryProbe().Invalidations))
			}
		})
	reg.Collect("archlined_registry_quarantined_blobs_total",
		"corrupt registry blobs quarantined by the recovery scan", "counter", nil,
		func(emit func([]string, float64)) {
			if m.registryProbe != nil {
				emit(nil, float64(m.registryProbe().Quarantined))
			}
		})
	reg.Collect("archlined_registry_platforms",
		"registered platforms per consistent-hash shard", "gauge",
		[]string{"shard"}, func(emit func([]string, float64)) {
			if m.registryProbe == nil {
				return
			}
			// Emitted in shard-index order (a slice, never a map), so
			// renders stay byte-stable.
			for i, n := range m.registryProbe().ShardPlatforms {
				emit([]string{strconv.Itoa(i)}, float64(n))
			}
		})
	return m
}

// noteRequest records one finished request: its status count and its
// latency sample in the duration histogram, the daemon's only latency
// record.
func (m *Metrics) noteRequest(endpoint string, status int, d time.Duration) {
	m.requests.With(endpoint, statusLabel(status)).Inc()
	m.duration.With(endpoint).Observe(d.Seconds())
}

// notePlatformQuery records one platform resolution on the model query
// paths; id is the registry platform id or "inline" for caller-supplied
// platform descriptions. The family's cardinality is bounded by the
// registry's per-family series cap; ids past it land in
// obs_dropped_series_total.
func (m *Metrics) notePlatformQuery(id string) { m.platformQueries.With(id).Inc() }

// statusLabel returns the decimal status label without allocating for
// the codes the daemon actually answers; anything exotic falls back to
// strconv.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusAccepted:
		return "202"
	case http.StatusNoContent:
		return "204"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusConflict:
		return "409"
	case http.StatusRequestEntityTooLarge:
		return "413"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	default:
		return strconv.Itoa(code)
	}
}

// noteCache records one cache lookup outcome.
func (m *Metrics) noteCache(hit bool) {
	if hit {
		m.cacheHits.Inc()
		return
	}
	m.cacheMisses.Inc()
}

// noteEval records one model evaluation (a cache-missed compute).
func (m *Metrics) noteEval() { m.modelEvals.Inc() }

// noteInFlight adjusts the in-flight request gauge.
func (m *Metrics) noteInFlight(delta int64) { m.inFlight.Add(float64(delta)) }

// noteShed records one load-shed request.
func (m *Metrics) noteShed() { m.shed.Inc() }

// noteChaos records one chaos-injected failure.
func (m *Metrics) noteChaos() { m.chaos.Inc() }

// InFlight reports the current in-flight request count.
func (m *Metrics) InFlight() int64 { return int64(m.inFlight.Value()) }

// Shed reports the total load-shed requests so far.
func (m *Metrics) Shed() int64 { return int64(m.shed.Value()) }

// ChaosInjected reports the total chaos-injected failures so far.
func (m *Metrics) ChaosInjected() int64 { return int64(m.chaos.Value()) }

// ModelEvals reports the total model evaluations so far.
func (m *Metrics) ModelEvals() int64 { return int64(m.modelEvals.Value()) }

// CacheHits reports the total cache hits so far.
func (m *Metrics) CacheHits() int64 { return int64(m.cacheHits.Value()) }

// Requests reports the total finished requests across all endpoints.
func (m *Metrics) Requests() int64 { return int64(m.requests.Sum()) }

// Render emits the text exposition. Families and series are key-sorted
// and the clock is injectable, so two renders of the same state are
// byte-identical.
func (m *Metrics) Render() string {
	return "# archlined metrics\n" + m.reg.Render()
}

// healthResponse is the /healthz body.
type healthResponse struct {
	Status string `json:"status"`
}

// handleHealthz answers liveness probes. It bypasses the cache: health
// is not a pure function of the request.
func (s *Server) handleHealthz(http.ResponseWriter, *http.Request) (any, *apiError) {
	return healthResponse{Status: "ok"}, nil
}

// handleMetrics serves the text exposition (not JSON, never cached). It
// writes directly and returns the already-handled sentinel.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) (any, *apiError) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, s.metrics.Render())
	return nil, nil
}
