package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestRegistryRenderExposition(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("requests_total", "finished requests", "endpoint", "status")
	reqs.With("/a", "200").Add(3)
	reqs.With("/a", "500").Inc()
	reqs.With("/b", "200").Inc()
	g := reg.Gauge("in_flight", "current requests").With()
	g.Set(2)
	h := reg.Histogram("latency_seconds", "request latency", []float64{0.1, 1}, "endpoint")
	h.With("/a").Observe(0.05)
	h.With("/a").Observe(0.5)
	h.With("/a").Observe(5)
	reg.Collect("uptime_seconds", "seconds up", "gauge", nil,
		func(emit func([]string, float64)) { emit(nil, 12.5) })
	reg.Collect("empty_family", "never emits", "gauge", nil,
		func(emit func([]string, float64)) {})

	want := strings.Join([]string{
		`# HELP in_flight current requests`,
		`# TYPE in_flight gauge`,
		`in_flight 2`,
		`# HELP latency_seconds request latency`,
		`# TYPE latency_seconds histogram`,
		`latency_seconds_bucket{endpoint="/a",le="0.1"} 1`,
		`latency_seconds_bucket{endpoint="/a",le="1"} 2`,
		`latency_seconds_bucket{endpoint="/a",le="+Inf"} 3`,
		`latency_seconds_sum{endpoint="/a"} 5.55`,
		`latency_seconds_count{endpoint="/a"} 3`,
		`# HELP requests_total finished requests`,
		`# TYPE requests_total counter`,
		`requests_total{endpoint="/a",status="200"} 3`,
		`requests_total{endpoint="/a",status="500"} 1`,
		`requests_total{endpoint="/b",status="200"} 1`,
		`# HELP uptime_seconds seconds up`,
		`# TYPE uptime_seconds gauge`,
		`uptime_seconds 12.5`,
	}, "\n") + "\n"
	got := reg.Render()
	if got != want {
		t.Errorf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
	if again := reg.Render(); again != got {
		t.Error("two renders of the same state differ")
	}
}

func TestCounterSemantics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "test counter").With()
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // negative deltas are ignored: counters are monotone
	if v := c.Value(); v != 3.5 {
		t.Errorf("counter = %v, want 3.5", v)
	}
	vec := reg.Counter("v_total", "labelled", "k")
	vec.With("a").Add(1)
	vec.With("b").Add(2)
	if s := vec.Sum(); s != 3 {
		t.Errorf("Sum = %v, want 3", s)
	}
}

func TestGaugeSemantics(t *testing.T) {
	g := NewRegistry().Gauge("g", "test gauge").With()
	g.Set(10)
	g.Add(-3)
	if v := g.Value(); v != 7 {
		t.Errorf("gauge = %v, want 7", v)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate family registration must panic")
		}
	}()
	reg.Gauge("dup", "second")
}

func TestLabelArityPanics(t *testing.T) {
	vec := NewRegistry().Counter("labelled", "two labels", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity must panic")
		}
	}()
	vec.With("only-one")
}

// TestSeriesCapSpills checks the per-family cardinality guard: past
// the cap, new label tuples are refused (writes land in a blackhole,
// never the exposition), the refusals are counted in
// obs_dropped_series_total, and already-interned series keep recording.
func TestSeriesCapSpills(t *testing.T) {
	reg := NewRegistry()
	reg.SetMaxSeriesPerFamily(4)
	vec := reg.Counter("by_user_total", "per-user requests", "user")
	for i := 0; i < 6; i++ {
		vec.With(fmt.Sprintf("user-%d", i)).Inc()
	}
	// Spilled writes must not lose the nil-safety contract: the
	// returned counter works, it just isn't rendered.
	vec.With("user-5").Add(10)
	// An interned series still records normally.
	vec.With("user-0").Inc()

	exp := reg.Render()
	for _, want := range []string{
		`by_user_total{user="user-0"} 2`,
		`by_user_total{user="user-3"} 1`,
		// Three refused resolutions: user-4, user-5, and user-5 again —
		// the counter tracks refused attempts, so sustained overflow
		// pressure stays visible even at a saturated series count.
		`obs_dropped_series_total{family="by_user_total"} 3`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q in:\n%s", want, exp)
		}
	}
	for _, reject := range []string{`user-4`, `user-5`} {
		if strings.Contains(exp, reject) {
			t.Errorf("capped series %q leaked into the exposition:\n%s", reject, exp)
		}
	}
	if got := vec.Sum(); got != 5 {
		t.Errorf("rendered family sums to %v, want 5 (spilled writes excluded)", got)
	}

	// Histograms spill to a bucketed blackhole without panicking.
	reg2 := NewRegistry()
	reg2.SetMaxSeriesPerFamily(1)
	h := reg2.Histogram("lat", "latency", []float64{1}, "ep")
	h.With("/a").Observe(0.5)
	h.With("/b").Observe(0.5) // refused, must not panic on nil counts
	if !strings.Contains(reg2.Render(), `obs_dropped_series_total{family="lat"} 1`) {
		t.Error("histogram spill was not counted")
	}
}

// TestSeriesCapUnbreachedIsInvisible checks a healthy registry renders
// no drop counter at all — the guard must not change the exposition of
// well-behaved callers.
func TestSeriesCapUnbreachedIsInvisible(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ok_total", "fine").With().Inc()
	if strings.Contains(reg.Render(), "obs_dropped_series_total") {
		t.Error("drop counter rendered without any drops")
	}
}

// TestSeriesLookupAllocFree checks resolving an already-interned
// two-label series allocates nothing, so a per-request counter or
// histogram write stays allocation-free.
func TestSeriesLookupAllocFree(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("requests_total", "finished requests", "endpoint", "status")
	lat := reg.Histogram("duration_seconds", "latency", DefBuckets, "endpoint")
	reqs.With("/v1/query", "200").Inc()
	lat.With("/v1/query").Observe(0.001)
	allocs := testing.AllocsPerRun(1000, func() {
		reqs.With("/v1/query", "200").Inc()
		lat.With("/v1/query").Observe(0.001)
	})
	if allocs != 0 {
		t.Errorf("resolving an existing series allocates %v times, want 0", allocs)
	}
	if got := reqs.Sum(); got != 1002 {
		t.Errorf("counter sum = %v, want 1002", got)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		3:      "3",
		-2:     "-2",
		2.5:    "2.5",
		0.0001: "0.0001",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}
