package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBatchDuplicateItemsSingleEval: N identical items in one batch go
// through the shared cache item by item. Items evaluated concurrently
// may each miss, so evaluations fall anywhere in [1, N], but every
// result slot must carry the same bytes, and a second identical batch
// is served wholly from the cache.
func TestBatchDuplicateItemsSingleEval(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	const n = 16
	item := `{"platform_id":"gtx-titan","intensity":4.0}`
	items := make([]string, n)
	for i := range items {
		items[i] = item
	}
	batch := fmt.Sprintf(`{"items":[%s]}`, strings.Join(items, ","))
	status, body := post(t, ts.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp struct {
		Items   int               `json:"items"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad batch body %q: %v", body, err)
	}
	if resp.Items != n || len(resp.Results) != n {
		t.Fatalf("items = %d, len(results) = %d, want %d", resp.Items, len(resp.Results), n)
	}
	for i, r := range resp.Results {
		if !bytes.Equal(r, resp.Results[0]) {
			t.Errorf("result %d differs from result 0:\n%s\n%s", i, r, resp.Results[0])
		}
	}
	evals := s.ModelEvals()
	if evals < 1 || evals > n {
		t.Errorf("ModelEvals = %d, want in [1, %d] for %d duplicate items", evals, n, n)
	}
	m := decode(t, []byte(resp.Results[0]))
	if m["platform"] != "GTX Titan" {
		t.Errorf("result platform = %v, want GTX Titan", m["platform"])
	}

	status, again := post(t, ts.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("second batch status = %d: %s", status, again)
	}
	if !bytes.Equal(again, body) {
		t.Errorf("second batch body differs:\n%s\n%s", again, body)
	}
	if got := s.ModelEvals(); got != evals {
		t.Errorf("second batch cost %d model evals, want 0", got-evals)
	}
}

// TestBatchMixedResults: item failures stay per-item. The batch answers
// 200 with an error envelope in the failing slots and real responses in
// the rest, in item order.
func TestBatchMixedResults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/batch", `{"items":[
		{"platform_id":"gtx-titan","intensity":4.0},
		{"platform_id":"no-such-machine","intensity":4.0},
		{"platform_id":"gtx-titan"},
		{"platform_id":"desktop-cpu","w_flops":1e12,"q_bytes":1e10}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad batch body %q: %v", body, err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("len(results) = %d, want 4", len(resp.Results))
	}
	if m := decode(t, resp.Results[0]); m["regime"] == nil {
		t.Errorf("result 0 should be a query response, got %s", resp.Results[0])
	}
	for i, wantCode := range map[int]string{1: "not_found", 2: "bad_request"} {
		m := decode(t, resp.Results[i])
		e, ok := m["error"].(map[string]any)
		if !ok {
			t.Fatalf("result %d should be an error envelope, got %s", i, resp.Results[i])
		}
		if e["code"] != wantCode {
			t.Errorf("result %d error code = %v, want %q", i, e["code"], wantCode)
		}
	}
	if m := decode(t, resp.Results[3]); m["time_s"] == nil {
		t.Errorf("result 3 should be a workload response with time_s, got %s", resp.Results[3])
	}
}

// TestBatchLimits: an empty batch and an oversized batch are both
// request-level errors.
func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := post(t, ts.URL+"/v1/batch", `{"items":[]}`)
	wantError(t, status, body, http.StatusBadRequest, "bad_request")

	items := make([]string, maxBatchItems+1)
	for i := range items {
		items[i] = `{"platform_id":"gtx-titan","intensity":4.0}`
	}
	status, body = post(t, ts.URL+"/v1/batch",
		fmt.Sprintf(`{"items":[%s]}`, strings.Join(items, ",")))
	wantError(t, status, body, http.StatusBadRequest, "bad_request")
}

// readStream parses one NDJSON sweep stream into header, chunks, and
// trailer, asserting the line protocol along the way.
func readStream(t *testing.T, r io.Reader) (header map[string]any, chunks []streamChunk, trailer streamTrailer) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning stream: %v", err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want at least header + trailer", len(lines))
	}
	header = decode(t, lines[0])
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	for i, line := range lines[1 : len(lines)-1] {
		var c streamChunk
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("bad chunk line %d: %q: %v", i, line, err)
		}
		if c.Seq != i {
			t.Errorf("chunk %d has seq %d", i, c.Seq)
		}
		chunks = append(chunks, c)
	}
	return header, chunks, trailer
}

// TestSweepStreamLargeGrid: a 10k-point sweep arrives as multiple
// flushed NDJSON chunks with a done trailer, without the server ever
// holding (or announcing) the full body.
func TestSweepStreamLargeGrid(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweep/stream", "application/json",
		strings.NewReader(`{"platform_id":"gtx-titan","imin":0.001,"imax":1000,"points":10000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	// A buffered response would carry Content-Length; the stream must be
	// chunked (length unknown up front = nothing was accumulated).
	if resp.ContentLength >= 0 {
		t.Errorf("ContentLength = %d, want unknown (chunked)", resp.ContentLength)
	}
	header, chunks, trailer := readStream(t, resp.Body)
	if header["points"] != float64(10000) {
		t.Errorf("header points = %v, want 10000", header["points"])
	}
	wantChunks := (10000 + defaultChunkPoints - 1) / defaultChunkPoints
	if len(chunks) != wantChunks {
		t.Errorf("got %d chunks, want %d", len(chunks), wantChunks)
	}
	if len(chunks) < 2 {
		t.Fatalf("got %d chunks, want at least 2 flushes", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		total += len(c.Points)
	}
	if total != 10000 {
		t.Errorf("streamed %d points, want 10000", total)
	}
	if !trailer.Done || trailer.Chunks != wantChunks || trailer.Points != 10000 {
		t.Errorf("trailer = %+v, want done with %d chunks / 10000 points", trailer, wantChunks)
	}
	if got := s.ModelEvals(); got != 1 {
		t.Errorf("ModelEvals = %d, want 1 per stream", got)
	}
}

// TestSweepStreamMatchesBufferedSweep: the streamed points must be the
// same numbers the buffered roofline endpoint computes for the same
// grid — the stream changes delivery, not the model.
func TestSweepStreamMatchesBufferedSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweep/stream", "application/json",
		strings.NewReader(`{"platform_id":"gtx-titan","imin":0.01,"imax":100,"points":25,"chunk_points":7}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, chunks, trailer := readStream(t, resp.Body)
	if !trailer.Done {
		t.Fatalf("trailer = %+v, want done", trailer)
	}
	var streamed []rooflinePoint
	for _, c := range chunks {
		streamed = append(streamed, c.Points...)
	}

	status, body := get(t, ts.URL+"/v1/platforms/gtx-titan/roofline?imin=0.01&imax=100&points=25")
	if status != http.StatusOK {
		t.Fatalf("roofline status = %d: %s", status, body)
	}
	var buffered struct {
		Points []rooflinePoint `json:"points"`
	}
	if err := json.Unmarshal(body, &buffered); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(buffered.Points) {
		t.Fatalf("streamed %d points, buffered %d", len(streamed), len(buffered.Points))
	}
	for i := range streamed {
		got, _ := json.Marshal(streamed[i])
		want, _ := json.Marshal(buffered.Points[i])
		if !bytes.Equal(got, want) {
			t.Errorf("point %d: streamed %s, buffered %s", i, got, want)
		}
	}
}

// TestSweepStreamValidation: grid and chunk bounds are enforced before
// any bytes stream.
func TestSweepStreamValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"platform_id":"gtx-titan","points":1}`,
		fmt.Sprintf(`{"platform_id":"gtx-titan","points":%d}`, streamMaxPoints+1),
		fmt.Sprintf(`{"platform_id":"gtx-titan","chunk_points":%d}`, maxChunkPoints+1),
		`{"platform_id":"gtx-titan","imin":-1}`,
	} {
		status, out := post(t, ts.URL+"/v1/sweep/stream", body)
		wantError(t, status, out, http.StatusBadRequest, "bad_request")
	}
	status, out := post(t, ts.URL+"/v1/sweep/stream", `{"platform_id":"nope"}`)
	wantError(t, status, out, http.StatusNotFound, "not_found")
}

// gzipGet performs a GET with an explicit Accept-Encoding so the Go
// client's transparent decompression stays out of the way, returning the
// raw response.
func gzipGet(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestGzipNegotiation: a large buffered response compresses when asked,
// decompresses to the exact bytes a plain client gets, and stays raw for
// clients that don't (or refuse to) accept gzip.
func TestGzipNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/platforms/gtx-titan/roofline?points=200"

	_, plain := get(t, url)
	if len(plain) < gzipMinBytes {
		t.Fatalf("test body too small (%d bytes) to exercise compression", len(plain))
	}

	resp := gzipGet(t, url)
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	if vary := resp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") {
		t.Errorf("Vary = %q, want Accept-Encoding", vary)
	}
	gr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unzipped, plain) {
		t.Errorf("gzip body decompresses to %d bytes, plain body is %d bytes", len(unzipped), len(plain))
	}

	// An explicit q=0 refuses gzip even though the token is present.
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip;q=0")
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if ce := raw.Header.Get("Content-Encoding"); ce != "" {
		t.Errorf("Content-Encoding = %q with q=0, want identity", ce)
	}
}

// TestGzipSkipsSmallBodies: tiny responses are cheaper raw than framed.
func TestGzipSkipsSmallBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := gzipGet(t, ts.URL+"/healthz")
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Errorf("Content-Encoding = %q for a tiny body, want identity", ce)
	}
}

// TestSweepStreamGzip: the NDJSON stream compresses end to end and
// still parses line by line after decompression.
func TestSweepStreamGzip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep/stream",
		strings.NewReader(`{"platform_id":"gtx-titan","points":2000,"chunk_points":500}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	gr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, chunks, trailer := readStream(t, gr)
	if len(chunks) != 4 || !trailer.Done || trailer.Points != 2000 {
		t.Errorf("got %d chunks, trailer %+v; want 4 chunks done with 2000 points", len(chunks), trailer)
	}
}

// TestAcceptsGzip covers the negotiation parser's corners.
func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"br, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip; q=0.0", false},
		{"*", true},
		{"identity", false},
		{"br;q=1.0, identity;q=0.5", false},
	}
	for _, c := range cases {
		r, _ := http.NewRequest(http.MethodGet, "/", nil)
		if c.header != "" {
			r.Header.Set("Accept-Encoding", c.header)
		}
		if got := acceptsGzip(r); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// BenchmarkBatchVsSequential measures the batch endpoint's round-trip
// saving: 64 distinct queries as one /v1/batch POST versus 64 separate
// /v1/query POSTs. Run with -benchtime to taste; the gap is the HTTP +
// handler overhead the batch amortizes.
func BenchmarkBatchVsSequential(b *testing.B) {
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf(`{"platform_id":"gtx-titan","intensity":%g}`, 0.5+float64(i))
	}
	batchBody := fmt.Sprintf(`{"items":[%s]}`, strings.Join(items, ","))

	b.Run("batch", func(b *testing.B) {
		ts := httptest.NewServer(New(Config{}).Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batchBody))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		ts := httptest.NewServer(New(Config{}).Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, item := range items {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(item))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		}
	})
}

// BenchmarkQueryInProc measures one /v1/query through the full handler
// stack without a socket: "hit" repeats one request against a warm
// cache, "miss" sends a fresh intensity every iteration so each request
// evaluates the model and fills the cache.
func BenchmarkQueryInProc(b *testing.B) {
	serve := func(b *testing.B, h http.Handler, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.Run("hit", func(b *testing.B) {
		h := New(Config{}).Handler()
		body := `{"platform_id":"gtx-titan","intensity":4}`
		serve(b, h, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, h, body)
		}
	})
	b.Run("miss", func(b *testing.B) {
		h := New(Config{}).Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, h, fmt.Sprintf(`{"platform_id":"gtx-titan","intensity":%d.5}`, i))
		}
	})
}

// BenchmarkSweepStream measures the streaming sweep end to end: a
// 10k-point grid consumed and discarded. Allocations stay flat in grid
// size because only one chunk is ever buffered.
func BenchmarkSweepStream(b *testing.B) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := `{"platform_id":"gtx-titan","imin":0.001,"imax":1000,"points":10000}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/sweep/stream", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
