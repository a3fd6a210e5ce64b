package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metrics registry: a generalized, stdlib-only family of counters,
// gauges, and histograms rendered as a Prometheus-style text exposition
// with # HELP / # TYPE headers. Families registered with Collect are
// computed at render time, for derived values (uptime, cache hit ratio,
// breaker state) that have no natural write path.
//
// Rendering is deterministic: families sort by name, series by label
// values, and whole-number values print without a fractional part — so
// two renders of the same state are byte-identical and the exposition
// can be pinned by a golden test.

// DefBuckets are the default latency histogram bucket bounds, in
// seconds, spanning sub-millisecond cache hits to multi-second fits.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultMaxSeriesPerFamily caps how many labelled series one family
// may intern. A caller that labels a metric with unbounded input (user
// IDs, raw paths) would otherwise grow the exposition — and the heap —
// without limit; past the cap, writes against new label tuples land in
// a shared blackhole series and are counted in obs_dropped_series_total
// instead of being stored.
const DefaultMaxSeriesPerFamily = 1024

// Registry holds metric families and renders the exposition.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	maxSeries int

	droppedMu sync.Mutex
	dropped   map[string]uint64 // family name -> series refused by the cap
}

// family is one named metric with a fixed label schema.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram", "summary"
	labels  []string
	buckets []float64 // histogram bounds (nil otherwise)

	reg       *Registry // owner, for drop accounting
	maxSeries int       // cap captured at registration

	mu     sync.Mutex
	series map[string]*series
	// overflow absorbs writes refused by the cap: callers get a real
	// series (the nil-safety contract of Counter/Gauge/Histogram is
	// preserved) but it is never rendered.
	overflow *series

	// collect, when set, replaces stored series at render time.
	collect func(emit func(labelValues []string, value float64))
}

// series is one labelled instance of a family.
type series struct {
	labels []string

	mu     sync.Mutex
	value  float64  // counter / gauge
	counts []uint64 // histogram per-bucket counts
	count  uint64   // histogram total observations
	sum    float64  // histogram sum of observations
}

// NewRegistry builds an empty registry. Every registry carries the
// obs_dropped_series_total self-metric, emitted only once a family has
// actually refused a series, so the exposition of a healthy registry is
// unchanged.
func NewRegistry() *Registry {
	r := &Registry{
		families:  map[string]*family{},
		maxSeries: DefaultMaxSeriesPerFamily,
		dropped:   map[string]uint64{},
	}
	r.Collect("obs_dropped_series_total",
		"series resolutions refused by the per-family cardinality cap", "counter",
		[]string{"family"}, func(emit func([]string, float64)) {
			r.droppedMu.Lock()
			defer r.droppedMu.Unlock()
			names := make([]string, 0, len(r.dropped))
			for name := range r.dropped {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				emit([]string{name}, float64(r.dropped[name]))
			}
		})
	return r
}

// SetMaxSeriesPerFamily replaces the per-family series cap for families
// registered afterwards. It exists for tests and special-purpose
// registries; the default suits the daemon.
func (r *Registry) SetMaxSeriesPerFamily(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > 0 {
		r.maxSeries = n
	}
}

// noteDroppedSeries counts one series refused by a family's cap.
func (r *Registry) noteDroppedSeries(familyName string) {
	r.droppedMu.Lock()
	r.dropped[familyName]++
	r.droppedMu.Unlock()
}

// register adds a family, panicking on a duplicate name: metric
// registration is static configuration, and a clash is a programming
// error better caught at construction than rendered ambiguously.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", f.name))
	}
	f.reg = r
	f.maxSeries = r.maxSeries
	r.families[f.name] = f
	return f
}

// Counter registers a counter family with the given label names.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(&family{
		name: name, help: help, typ: "counter", labels: labels, series: map[string]*series{},
	})}
}

// Gauge registers a gauge family with the given label names.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(&family{
		name: name, help: help, typ: "gauge", labels: labels, series: map[string]*series{},
	})}
}

// Histogram registers a histogram family with the given cumulative
// bucket upper bounds (ascending; +Inf is implicit) and label names.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{fam: r.register(&family{
		name: name, help: help, typ: "histogram", labels: labels,
		buckets: append([]float64(nil), buckets...), series: map[string]*series{},
	})}
}

// Collect registers a render-time family: fn runs at every Render and
// emits (labelValues, value) pairs. Use it for derived metrics with no
// write path of their own. typ is the exposition TYPE ("counter",
// "gauge", "summary"). A family that emits nothing is omitted entirely.
func (r *Registry) Collect(name, help, typ string, labels []string,
	fn func(emit func(labelValues []string, value float64))) {
	r.register(&family{name: name, help: help, typ: typ, labels: labels, collect: fn})
}

// seriesKey joins label values into a sortable map key.
func seriesKey(values []string) string { return string(appendSeriesKey(nil, values)) }

// appendSeriesKey appends the seriesKey bytes for values to dst.
func appendSeriesKey(dst []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			dst = append(dst, '\xff')
		}
		dst = append(dst, v...)
	}
	return dst
}

// with returns (creating if needed) the series for the label values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	// The key is built in a stack buffer and looked up without
	// conversion, so resolving an existing series allocates nothing; the
	// map copies the key only when it inserts a new series.
	var buf [128]byte
	key := appendSeriesKey(buf[:0], values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[string(key)]
	if !ok {
		if f.maxSeries > 0 && len(f.series) >= f.maxSeries {
			// Cardinality cap: spill to the blackhole series and count
			// the refusal, so a runaway caller can't OOM the exposition
			// path and the loss stays observable.
			if f.overflow == nil {
				f.overflow = &series{}
				if f.typ == "histogram" {
					f.overflow.counts = make([]uint64, len(f.buckets))
				}
			}
			f.reg.noteDroppedSeries(f.name)
			return f.overflow
		}
		s = &series{labels: append([]string(nil), values...)}
		if f.typ == "histogram" {
			s.counts = make([]uint64, len(f.buckets))
		}
		f.series[string(key)] = s
	}
	return s
}

// CounterVec is a counter family handle.
type CounterVec struct{ fam *family }

// With resolves the counter for the given label values.
func (v *CounterVec) With(labelValues ...string) Counter {
	return Counter{s: v.fam.with(labelValues)}
}

// Sum totals the family across all series. Keys are sorted so the
// float accumulation order (and thus the rounding) is deterministic.
func (v *CounterVec) Sum() float64 {
	v.fam.mu.Lock()
	defer v.fam.mu.Unlock()
	keys := make([]string, 0, len(v.fam.series))
	for k := range v.fam.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		s := v.fam.series[k]
		s.mu.Lock()
		total += s.value
		s.mu.Unlock()
	}
	return total
}

// Counter is one monotonically increasing series.
type Counter struct{ s *series }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add increases the counter by delta (which must be non-negative).
func (c Counter) Add(delta float64) {
	if c.s == nil || delta < 0 {
		return
	}
	c.s.mu.Lock()
	c.s.value += delta
	c.s.mu.Unlock()
}

// Value reads the current count.
func (c Counter) Value() float64 {
	if c.s == nil {
		return 0
	}
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.value
}

// GaugeVec is a gauge family handle.
type GaugeVec struct{ fam *family }

// With resolves the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) Gauge {
	return Gauge{s: v.fam.with(labelValues)}
}

// Gauge is one settable series.
type Gauge struct{ s *series }

// Set replaces the gauge's value.
func (g Gauge) Set(v float64) {
	if g.s == nil {
		return
	}
	g.s.mu.Lock()
	g.s.value = v
	g.s.mu.Unlock()
}

// Add shifts the gauge by delta (negative deltas decrease it).
func (g Gauge) Add(delta float64) {
	if g.s == nil {
		return
	}
	g.s.mu.Lock()
	g.s.value += delta
	g.s.mu.Unlock()
}

// Value reads the current value.
func (g Gauge) Value() float64 {
	if g.s == nil {
		return 0
	}
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.value
}

// HistogramVec is a histogram family handle.
type HistogramVec struct{ fam *family }

// With resolves the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) Histogram {
	return Histogram{s: v.fam.with(labelValues), buckets: v.fam.buckets}
}

// Histogram is one labelled distribution.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one sample.
func (h Histogram) Observe(v float64) {
	if h.s == nil {
		return
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	// counts are per-bucket (non-cumulative); Render cumulates into the
	// le-labelled Prometheus form.
	for i, bound := range h.buckets {
		if v <= bound {
			h.s.counts[i]++
			break
		}
	}
	h.s.count++
	h.s.sum += v
}

// Render emits the text exposition: families sorted by name, each with
// # HELP and # TYPE headers, series sorted by label values. Families
// with no series (and Collect families that emit nothing) are omitted.
func (r *Registry) Render() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	return b.String()
}

// samplePoint is one rendered series value.
type samplePoint struct {
	labels []string
	value  float64
	// histogram extras
	counts []uint64
	count  uint64
	sum    float64
}

// render writes one family's block to b.
func (f *family) render(b *strings.Builder) {
	var points []samplePoint
	if f.collect != nil {
		f.collect(func(labelValues []string, value float64) {
			points = append(points, samplePoint{
				labels: append([]string(nil), labelValues...), value: value,
			})
		})
	} else {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			s.mu.Lock()
			points = append(points, samplePoint{
				labels: s.labels, value: s.value,
				counts: append([]uint64(nil), s.counts...), count: s.count, sum: s.sum,
			})
			s.mu.Unlock()
		}
		f.mu.Unlock()
	}
	if len(points) == 0 {
		return
	}
	sort.Slice(points, func(i, j int) bool {
		return seriesKey(points[i].labels) < seriesKey(points[j].labels)
	})
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, p := range points {
		if f.typ == "histogram" && f.collect == nil {
			f.renderHistogram(b, p)
			continue
		}
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelBlock(f.labels, p.labels), formatValue(p.value))
	}
}

// renderHistogram writes one histogram series: cumulative buckets with
// an le label, then _sum and _count.
func (f *family) renderHistogram(b *strings.Builder, p samplePoint) {
	cum := uint64(0)
	for i, bound := range f.buckets {
		cum += p.counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
			labelBlock(append(f.labels, "le"), append(p.labels, formatValue(bound))), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
		labelBlock(append(f.labels, "le"), append(p.labels, "+Inf")), p.count)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelBlock(f.labels, p.labels), formatValue(p.sum))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelBlock(f.labels, p.labels), p.count)
}

// labelBlock renders {k1="v1",k2="v2"}, or "" with no labels.
func labelBlock(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", name, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue prints whole numbers without a fractional part and
// everything else in shortest round-trip form.
func formatValue(v float64) string {
	//archlint:ignore floatcmp exact integrality test chooses a print format; approximate comparison would misrender near-integers
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
