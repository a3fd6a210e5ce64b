package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestServer builds a server + httptest host with default config.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get performs a GET and returns status + body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// post performs a JSON POST and returns status + body.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// decode unmarshals a response body into a generic map.
func decode(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	return m
}

// wantError asserts the structured error envelope.
func wantError(t *testing.T, status int, body []byte, wantStatus int, wantCode string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", status, wantStatus, body)
	}
	m := decode(t, body)
	e, ok := m["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %s", body)
	}
	if e["code"] != wantCode {
		t.Errorf("error code = %v, want %q", e["code"], wantCode)
	}
	if e["status"] != float64(wantStatus) {
		t.Errorf("error status = %v, want %d", e["status"], wantStatus)
	}
	if e["message"] == "" {
		t.Error("error message is empty")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if m := decode(t, body); m["status"] != "ok" {
		t.Errorf("healthz = %s", body)
	}
}

func TestPlatforms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/platforms")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	m := decode(t, body)
	plats, ok := m["platforms"].([]any)
	if !ok || len(plats) != 12 {
		t.Fatalf("want 12 Table I platforms, got %d", len(plats))
	}
	first := plats[0].(map[string]any)
	for _, field := range []string{"id", "name", "class", "pi1_w", "delta_pi_w", "peak_gflops_per_joule"} {
		if _, ok := first[field]; !ok {
			t.Errorf("platform entry missing %q: %v", field, first)
		}
	}
}

func TestRoofline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/platforms/gtx-titan/roofline?imin=0.25&imax=256&points=31")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	m := decode(t, body)
	if m["platform_id"] != "gtx-titan" {
		t.Errorf("platform_id = %v", m["platform_id"])
	}
	points, ok := m["points"].([]any)
	if !ok || len(points) != 31 {
		t.Fatalf("want 31 points, got %d", len(points))
	}
	// Titan's cap binds (Table I: pi_flop + pi_mem > DeltaPi).
	if m["cap_binds"] != true {
		t.Error("gtx-titan cap_binds should be true")
	}
	first := points[0].(map[string]any)
	if first["regime"] != "M" {
		t.Errorf("regime at I=0.25 = %v, want M (memory-bound)", first["regime"])
	}
	last := points[len(points)-1].(map[string]any)
	if !(last["flops_per_sec"].(float64) > first["flops_per_sec"].(float64)) {
		t.Error("flop rate should grow with intensity")
	}
}

func TestRooflineErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/platforms/cray-1/roofline")
	wantError(t, status, body, http.StatusNotFound, "not_found")

	status, body = get(t, ts.URL+"/v1/platforms/gtx-titan/roofline?imin=-1")
	wantError(t, status, body, http.StatusBadRequest, "bad_request")

	status, body = get(t, ts.URL+"/v1/platforms/gtx-titan/roofline?points=100000")
	wantError(t, status, body, http.StatusBadRequest, "bad_request")

	status, body = get(t, ts.URL+"/v1/platforms/gtx-titan/roofline?precision=half")
	wantError(t, status, body, http.StatusBadRequest, "bad_request")
}

func TestQueryWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/query",
		`{"platform_id": "gtx-titan", "w_flops": 2e9, "q_bytes": 1e9}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	m := decode(t, body)
	if m["intensity"].(float64) != 2 {
		t.Errorf("intensity = %v, want 2", m["intensity"])
	}
	for _, field := range []string{"time_s", "energy_j", "avg_power_w", "regime"} {
		if m[field] == nil {
			t.Errorf("workload query missing %q: %s", field, body)
		}
	}
	// Cross-check: avg power must equal energy/time.
	timeS := m["time_s"].(float64)
	energyJ := m["energy_j"].(float64)
	powerW := m["avg_power_w"].(float64)
	if rel := (energyJ/timeS - powerW) / powerW; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("P != E/T: %g != %g/%g", powerW, energyJ, timeS)
	}
}

func TestQueryIntensity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/query", `{"platform_id": "arndale-gpu", "intensity": 4}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	m := decode(t, body)
	if m["time_s"] != nil {
		t.Error("intensity query should not report absolute time")
	}
	if !(m["flops_per_sec"].(float64) > 0) || !(m["avg_power_w"].(float64) > 0) {
		t.Errorf("rates missing: %s", body)
	}
}

func TestQueryCustomPlatform(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A platform description in the -platform-file schema.
	custom := `{
	  "platform": {
	    "id": "custom-box", "name": "Custom Box", "processor": "X1", "class": "desktop",
	    "vendor_single_gflops": 1000, "vendor_mem_gbs": 100,
	    "sustained_single_gflops": 800, "sustained_mem_gbs": 80,
	    "eps_s_pj_per_flop": 100, "eps_mem_pj_per_byte": 500,
	    "pi1_w": 50, "delta_pi_w": 100, "cache_line_bytes": 64
	  },
	  "intensity": 8
	}`
	status, body := post(t, ts.URL+"/v1/query", custom)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	m := decode(t, body)
	if m["platform"] != "Custom Box" {
		t.Errorf("platform = %v", m["platform"])
	}

	// Both platform_id and platform set: a usage error.
	status, body = post(t, ts.URL+"/v1/query",
		`{"platform_id": "gtx-titan", "platform": {"id": "x"}, "intensity": 1}`)
	wantError(t, status, body, http.StatusBadRequest, "bad_request")
}

func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed", `{"platform_id": `, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"platform_id": "gtx-titan", "wflops": 1}`, http.StatusBadRequest, "bad_request"},
		{"trailing garbage", `{"platform_id": "gtx-titan", "intensity": 1} {}`, http.StatusBadRequest, "bad_request"},
		{"unknown platform", `{"platform_id": "cray-1", "intensity": 1}`, http.StatusNotFound, "not_found"},
		{"no mode", `{"platform_id": "gtx-titan"}`, http.StatusBadRequest, "bad_request"},
		{"both modes", `{"platform_id": "gtx-titan", "intensity": 1, "w_flops": 1, "q_bytes": 1}`,
			http.StatusBadRequest, "bad_request"},
		{"half workload", `{"platform_id": "gtx-titan", "w_flops": 1}`, http.StatusBadRequest, "bad_request"},
		{"negative intensity", `{"platform_id": "gtx-titan", "intensity": -2}`, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := post(t, ts.URL+"/v1/query", c.body)
			wantError(t, status, body, c.status, c.code)
		})
	}
}

func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	big := `{"platform_id": "gtx-titan", "intensity": 1, "padding": "` +
		strings.Repeat("x", 4096) + `"}`
	status, body := post(t, ts.URL+"/v1/query", big)
	wantError(t, status, body, http.StatusRequestEntityTooLarge, "body_too_large")
}

func TestCompare(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/compare",
		`{"a": {"platform_id": "gtx-titan"}, "b": {"platform_id": "arndale-gpu"}}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	m := decode(t, body)
	if int(m["agg_count"].(float64)) < 2 {
		t.Errorf("agg_count = %v, want the fig. 1 power-matched multiple", m["agg_count"])
	}
	for _, curves := range []string{"perf", "eff", "power"} {
		cs, ok := m[curves].([]any)
		if !ok || len(cs) != 3 {
			t.Fatalf("want 3 %s series (A, B, aggregate), got %v", curves, m[curves])
		}
	}
	if _, ok := m["energy_crossover"].(float64); !ok {
		t.Errorf("fig. 1 energy crossover missing: %s", body)
	}
}

func TestCompareMissingPlatform(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/compare", `{"a": {"platform_id": "gtx-titan"}}`)
	wantError(t, status, body, http.StatusBadRequest, "bad_request")
}

func TestWhatIfThrottle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/whatif",
		`{"kind": "throttle", "platform": {"platform_id": "gtx-titan"}, "grid": 9}`)
	wantError(t, status, body, http.StatusBadRequest, "bad_request") // unknown field "grid"

	status, body = post(t, ts.URL+"/v1/whatif",
		`{"kind": "throttle", "platform": {"platform_id": "gtx-titan"}, "points": 9}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	m := decode(t, body)
	curves, ok := m["throttle"].([]any)
	if !ok || len(curves) != 4 {
		t.Fatalf("want 4 default cap curves, got %v", m["throttle"])
	}
	full := curves[0].(map[string]any)
	half := curves[1].(map[string]any)
	if full["frac"].(float64) != 1 || half["frac"].(float64) != 0.5 {
		t.Errorf("default fracs wrong: %v %v", full["frac"], half["frac"])
	}
	if len(full["points"].([]any)) != 9 {
		t.Errorf("want 9 points per curve")
	}
}

func TestWhatIfBound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/whatif",
		`{"kind": "bound", "big": {"platform_id": "gtx-titan"},
		  "small": {"platform_id": "arndale-gpu"}, "budget_w": 200, "intensity": 4}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	m := decode(t, body)
	b, ok := m["bound"].(map[string]any)
	if !ok {
		t.Fatalf("no bound section: %s", body)
	}
	if b["budget_w"].(float64) != 200 || !(b["small_count"].(float64) > 0) {
		t.Errorf("bound result wrong: %v", b)
	}
}

func TestWhatIfAggregate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/whatif",
		`{"kind": "aggregate", "big": {"platform_id": "gtx-titan"}, "small": {"platform_id": "arndale-gpu"}}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	m := decode(t, body)
	agg, ok := m["aggregate"].(map[string]any)
	if !ok {
		t.Fatalf("no aggregate section: %s", body)
	}
	if !(agg["count"].(float64) > 1) {
		t.Errorf("aggregate count = %v", agg["count"])
	}
}

func TestWhatIfUnknownKind(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/whatif", `{"kind": "overclock"}`)
	wantError(t, status, body, http.StatusBadRequest, "bad_request")
}

func TestNotFoundAndMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v2/nothing")
	wantError(t, status, body, http.StatusNotFound, "not_found")

	// PUT: /v1/platforms takes GET (list) and POST (upload), nothing else.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/platforms", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantError(t, resp.StatusCode, putBody, http.StatusMethodNotAllowed, "method_not_allowed")

	status, body = get(t, ts.URL+"/v1/query")
	wantError(t, status, body, http.StatusMethodNotAllowed, "method_not_allowed")
}

func TestCacheDeterminism(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/platforms/arndale-gpu/roofline?points=17"
	status1, body1 := get(t, url)
	status2, body2 := get(t, url)
	if status1 != http.StatusOK || status2 != http.StatusOK {
		t.Fatalf("statuses %d, %d", status1, status2)
	}
	if string(body1) != string(body2) {
		t.Error("identical requests returned different bytes")
	}
	if n := s.ModelEvals(); n != 1 {
		t.Errorf("model evals = %d, want 1 (second request must hit the cache)", n)
	}
	if h := s.Metrics().CacheHits(); h != 1 {
		t.Errorf("cache hits = %d, want 1", h)
	}

	// POST bodies with different formatting canonicalize to one entry.
	q1 := `{"platform_id": "gtx-titan", "intensity": 4}`
	q2 := `{"intensity": 4.0, "platform_id": "gtx-titan"}`
	_, qBody1 := post(t, ts.URL+"/v1/query", q1)
	_, qBody2 := post(t, ts.URL+"/v1/query", q2)
	if string(qBody1) != string(qBody2) {
		t.Error("equivalent queries returned different bytes")
	}
	if n := s.ModelEvals(); n != 2 {
		t.Errorf("model evals = %d, want 2 (reordered JSON must share the cache slot)", n)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, _ = get(t, ts.URL+"/v1/platforms")
	_, _ = get(t, ts.URL+"/v1/platforms")
	_, _ = get(t, ts.URL+"/healthz")
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`archlined_requests_total{endpoint="/v1/platforms",status="200"} 2`,
		`archlined_requests_total{endpoint="/healthz",status="200"} 1`,
		`archlined_request_duration_seconds_count{endpoint="/v1/platforms"} 2`,
		"archlined_cache_hits_total 1",
		"archlined_cache_misses_total 1",
		"archlined_model_evals_total 1",
		"archlined_uptime_seconds",
		"archlined_in_flight_requests",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestLRUEvictionEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 2})
	urls := []string{
		ts.URL + "/v1/platforms/gtx-titan/roofline?points=5",
		ts.URL + "/v1/platforms/arndale-gpu/roofline?points=5",
		ts.URL + "/v1/platforms/gtx-680/roofline?points=5",
	}
	for _, u := range urls {
		_, _ = get(t, u)
	}
	// Cache holds 2 of the 3; re-requesting the oldest recomputes.
	_, _ = get(t, urls[0])
	if n := s.ModelEvals(); n != 4 {
		t.Errorf("model evals = %d, want 4 (first entry evicted by LRU)", n)
	}
}
