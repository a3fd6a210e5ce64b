package server

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"archline/internal/jobs"
	"archline/internal/obs"
	"archline/internal/obs/agg"
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
// The high-frequency request paths (request counts, latency samples,
// per-platform counters) do not touch the registry directly: they
// record into a statsd-style aggregation stage (internal/obs/agg) whose
// hot path is a striped-map update with zero allocation, and the
// buffered state drains into the registry families on FlushAgg — called
// by the server's interval flusher — and, uncounted, at the top of
// every Render so the exposition is never stale. Low-frequency
// counters asserted exactly by tests (cache, evals, shed, chaos,
// in-flight) stay direct.
type Metrics struct {
	start time.Time
	now   func() time.Time

	reg             *obs.Registry
	requests        *obs.CounterVec
	duration        *obs.HistogramVec
	platformQueries *obs.CounterVec

	cacheHits         obs.Counter
	cacheMisses       obs.Counter
	modelEvals        obs.Counter
	shed              obs.Counter
	chaos             obs.Counter
	inFlight          obs.Gauge
	distinctPlatforms obs.Gauge
	aggFlushes        obs.Counter

	agg            *agg.Aggregator
	aggRequests    *agg.Counter
	aggLatency     *agg.Timer
	aggPlatQueries *agg.Counter
	aggPlatSet     *agg.Set

	flushMu   sync.Mutex
	lastFlush time.Time // set only by FlushAgg (the counted interval flush)

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
	m.distinctPlatforms = reg.Gauge("archlined_distinct_platforms_queried",
		"distinct platform ids queried in the last flush interval").With()
	m.aggFlushes = reg.Counter("archlined_agg_flushes_total",
		"interval flushes of the metric aggregation stage").With()

	// The aggregation stage. Family caps are deliberate policy:
	// request/latency cardinality is bounded by the route table (times
	// the status alphabet), so the aggregator default is plenty;
	// platform_queries is the genuinely high-cardinality family (any
	// registry upload mints an id), so it gets a tight cap and spills to
	// archlined_agg_dropped_series_total rather than growing without
	// bound. The latency ring holds 4096 samples per endpoint per
	// interval; beyond that the oldest samples are overwritten and the
	// loss lands in archlined_agg_dropped_samples_total.
	m.agg = agg.New(agg.Config{})
	m.aggRequests = m.agg.Counter("requests", 2, func(l []string, delta float64) {
		m.requests.With(l[0], l[1]).Add(delta)
	}, agg.Opts{})
	m.aggLatency = m.agg.Timer("latency", 1, m.sinkLatency, agg.Opts{TimerCap: 4096})
	m.aggPlatQueries = m.agg.Counter("platform_queries", 1, func(l []string, delta float64) {
		m.platformQueries.With(l[0]).Add(delta)
	}, agg.Opts{MaxSeries: 256})
	m.aggPlatSet = m.agg.Set("distinct_platforms", 0, func(_ []string, distinct float64) {
		m.distinctPlatforms.Set(distinct)
	}, agg.Opts{})

	reg.Collect("archlined_agg_series", "live series per aggregation family", "gauge",
		[]string{"family"}, func(emit func([]string, float64)) {
			// Stats reports in registration order (a slice, never a map),
			// so renders stay byte-stable.
			for _, st := range m.agg.Stats() {
				emit([]string{st.Name}, float64(st.Series))
			}
		})
	reg.Collect("archlined_agg_dropped_series_total",
		"recordings refused by a family's aggregation cardinality cap", "counter",
		[]string{"family"}, func(emit func([]string, float64)) {
			for _, st := range m.agg.Stats() {
				if st.DroppedSeries > 0 {
					emit([]string{st.Name}, float64(st.DroppedSeries))
				}
			}
		})
	reg.Collect("archlined_agg_dropped_samples_total",
		"timer samples overwritten before their interval flush", "counter",
		[]string{"family"}, func(emit func([]string, float64)) {
			for _, st := range m.agg.Stats() {
				if st.DroppedSamples > 0 {
					emit([]string{st.Name}, float64(st.DroppedSamples))
				}
			}
		})
	reg.Collect("archlined_agg_flush_age_seconds",
		"seconds since the last interval flush of the aggregation stage", "gauge", nil,
		func(emit func([]string, float64)) {
			m.flushMu.Lock()
			last := m.lastFlush
			m.flushMu.Unlock()
			if last.IsZero() {
				// No interval flush yet (render-time flushes are not
				// counted): emitting nothing beats emitting a lie.
				return
			}
			emit(nil, math.Round(m.now().Sub(last).Seconds()*1000)/1000)
		})

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

// noteRequest records one finished request. The write is two striped
// aggregation updates — no registry family lock, no allocation — and
// the data reaches the exposition at the next flush.
func (m *Metrics) noteRequest(endpoint string, status int, d time.Duration) {
	m.aggRequests.Add2(endpoint, statusLabel(status), 1)
	m.aggLatency.Observe1(endpoint, d.Seconds())
}

// notePlatformQuery records one platform resolution on the model query
// paths; id is the registry platform id or "inline" for caller-supplied
// platform descriptions.
func (m *Metrics) notePlatformQuery(id string) {
	m.aggPlatQueries.Add1(id, 1)
	m.aggPlatSet.Insert(id)
}

// sinkLatency is the latency timer's flush sink: it drains the samples
// noteRequest recorded into the duration histogram, the daemon's only
// latency record.
func (m *Metrics) sinkLatency(labels []string, samples []float64) {
	h := m.duration.With(labels[0])
	for _, s := range samples {
		h.Observe(s)
	}
}

// FlushAgg drains the aggregation stage into the registry and counts
// the flush; the server's interval flusher calls it. Render also
// flushes, but uncounted — archlined_agg_flushes_total and the flush
// age track only the interval cadence, so a lagging flusher is visible
// no matter how often the exposition is scraped.
func (m *Metrics) FlushAgg() {
	m.agg.Flush()
	m.aggFlushes.Inc()
	m.flushMu.Lock()
	m.lastFlush = m.now()
	m.flushMu.Unlock()
}

// AggStats exposes the aggregation stage's cardinality accounting (for
// tests and embedding).
func (m *Metrics) AggStats() []agg.FamilyStats { return m.agg.Stats() }

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

// Requests reports the total finished requests across all endpoints,
// draining the aggregation stage first so buffered requests count.
func (m *Metrics) Requests() int64 {
	m.agg.Flush()
	return int64(m.requests.Sum())
}

// Render emits the text exposition. The aggregation stage is drained
// first (uncounted — see FlushAgg) so a scrape never reads stale
// buffered state; families and series are key-sorted and the clock is
// injectable, so two renders of the same state are byte-identical.
func (m *Metrics) Render() string {
	m.agg.Flush()
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
