package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"archline/internal/jobs"
	"archline/internal/machine"
	"archline/internal/model"
)

// rawClient neither negotiates nor inflates gzip on its own, so a test
// sees the Content-Encoding and the bytes the server actually sent.
var rawClient = &http.Client{Transport: &http.Transport{DisableCompression: true}}

// doEncoded sends one request with an explicit Accept-Encoding through
// rawClient and returns the response, failing unless it is a 200 whose
// Content-Encoding matches the negotiation.
func doEncoded(t testing.TB, method, url, body, enc string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", enc)
	resp, err := rawClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("%s %s: status = %d", method, url, resp.StatusCode)
	}
	if gz := resp.Header.Get("Content-Encoding") == "gzip"; gz != (enc == "gzip") {
		resp.Body.Close()
		t.Fatalf("Accept-Encoding %s answered with Content-Encoding %q", enc, resp.Header.Get("Content-Encoding"))
	}
	return resp
}

// encodedBody returns a response body in identity bytes, inflating it
// when the response is gzip. Reading a gzip body to its end checks the
// frame's CRC and length, so a truncated or unclosed frame fails here.
func encodedBody(t *testing.T, method, url, body, enc string) []byte {
	t.Helper()
	resp := doEncoded(t, method, url, body, enc)
	defer resp.Body.Close()
	var r io.Reader = resp.Body
	if enc == "gzip" {
		gr, err := gzip.NewReader(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		r = gr
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("%s %s (%s): %v", method, url, enc, err)
	}
	return out
}

// TestSweepStreamGzip: the gzip stream inflates to exactly the identity
// stream's bytes at every chunk granularity, from one-point lines to
// 4096-point lines (~400 KiB, larger than the stream buffer).
func TestSweepStreamGzip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const points = 2*maxChunkPoints + 3
	for _, chunk := range []int{1, defaultChunkPoints, maxChunkPoints} {
		body := fmt.Sprintf(`{"platform_id":"gtx-titan","imin":0.001,"imax":1000,"points":%d,"chunk_points":%d}`,
			points, chunk)
		identity := encodedBody(t, http.MethodPost, ts.URL+"/v1/sweep/stream", body, "identity")
		inflated := encodedBody(t, http.MethodPost, ts.URL+"/v1/sweep/stream", body, "gzip")
		if !bytes.Equal(inflated, identity) {
			t.Fatalf("chunk_points=%d: inflated gzip stream (%d bytes) differs from the identity stream (%d bytes)",
				chunk, len(inflated), len(identity))
		}
		_, chunks, trailer := readStream(t, bytes.NewReader(identity))
		if want := (points + chunk - 1) / chunk; len(chunks) != want || !trailer.Done || trailer.Points != points {
			t.Errorf("chunk_points=%d: %d chunks, trailer %+v; want %d chunks done with %d points",
				chunk, len(chunks), trailer, want, points)
		}
	}
}

// TestNDJSONGzipFlushDeliversLine: once flush returns, the line written
// before it must reach the client and inflate through gzip.Reader while
// the handler still holds the rest of the stream — the gzip frame, the
// stream buffer and the HTTP writer all have to be flushed.
func TestNDJSONGzipFlushDeliversLine(t *testing.T) {
	const header, trailer = `{"header":true}` + "\n", `{"done":true}` + "\n"
	delivered := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out, flush, finish := startNDJSON(w, r)
		defer finish()
		_, _ = io.WriteString(out, header)
		flush()
		select {
		case <-delivered:
		case <-time.After(5 * time.Second):
			t.Error("the flushed header line did not reach the client before the trailer was written")
		}
		_, _ = io.WriteString(out, trailer)
		flush()
	}))
	defer ts.Close()

	resp := doEncoded(t, http.MethodGet, ts.URL, "", "gzip")
	defer resp.Body.Close()
	gr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(gr)
	line, err := br.ReadString('\n')
	if err != nil || line != header {
		t.Fatalf("header line = %q, %v; want %q", line, err, header)
	}
	close(delivered)
	rest, err := io.ReadAll(br)
	if err != nil || string(rest) != trailer {
		t.Fatalf("rest of stream = %q, %v; want %q", rest, err, trailer)
	}
}

// TestJobEventsGzip: the job event stream's gzip path delivers each
// live line through gzip.Reader as it is flushed, and a finished job's
// replay inflates to exactly its identity bytes.
func TestJobEventsGzip(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	release := make(chan struct{})
	started := make(chan struct{})
	id, err := s.jobs.Submit(context.Background(), "narrated",
		func(ctx context.Context, p *jobs.Progress) (any, error) {
			p.Emit("stage", map[string]any{"n": 1})
			close(started)
			<-release
			p.Emit("stage", map[string]any{"n": 2})
			return "narration over", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	url := ts.URL + "/v1/jobs/" + id + "/events"

	resp := doEncoded(t, http.MethodGet, url, "", "gzip")
	defer resp.Body.Close()
	gr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(gr)
	// Header and the replay (queued, running, stage 1) arrive while the
	// job is still held, so they came through flushes, not the close.
	for i := 0; i < 4; i++ {
		if !sc.Scan() {
			t.Fatalf("line %d missing while the job runs: %v", i, sc.Err())
		}
		if i == 0 {
			if h := decode(t, sc.Bytes()); h["job"] != id || h["state"] != "running" {
				t.Errorf("header = %v", h)
			}
		}
	}
	close(release)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if tr := decode(t, last); tr["done"] != true || tr["state"] != "done" {
		t.Errorf("trailer = %v", tr)
	}

	identity := encodedBody(t, http.MethodGet, url, "", "identity")
	if inflated := encodedBody(t, http.MethodGet, url, "", "gzip"); !bytes.Equal(inflated, identity) {
		t.Fatalf("finished job replay: inflated gzip\n%s\ndiffers from identity\n%s", inflated, identity)
	}
}

// BenchmarkAppendStreamChunk measures the stream encoder alone: one
// default-size chunk (512 points) appended into a reused line buffer,
// which must cost no allocations.
func BenchmarkAppendStreamChunk(b *testing.B) {
	k := model.NewKernel(machine.MustByID("gtx-titan").Single)
	const n = defaultChunkPoints
	pts := k.AppendLogSpace(make([]model.Point, 0, n), math.Log(0.001), math.Log(1000), 0, n, n)
	line, ok := appendStreamChunk(nil, 0, pts)
	if !ok {
		b.Fatal("non-finite point in the benchmark chunk")
	}
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line, _ = appendStreamChunk(line[:0], i, pts)
	}
}

// fuzzPointWords is how many float64 words FuzzAppendStreamChunk reads
// per point: intensity, flop rate, uncapped flop rate, flops per joule,
// average power and throttle.
const fuzzPointWords = 6

// FuzzAppendStreamChunk holds the hand-rolled chunk encoder to
// encoding/json over arbitrary float64 bit patterns. data is read as
// little-endian words, fuzzPointWords per point (up to 8 points), and
// regimes gives each point its regime in two bits, including the
// out-of-range one. A line of finite values must equal json.Encoder's
// encoding of the same streamChunk byte for byte; a non-finite required
// value must drop the line exactly when Encode fails.
func FuzzAppendStreamChunk(f *testing.F) {
	words := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(0, uint8(0), words(0.125, 3.5e11, 4e11, 2.1e9, 95.25, 1))
	f.Add(7, uint8(0x1b), words(1e-7, 1.5e21, 0, 5e-7, 1e21, 0, 2.5e22, 1e-6, 1e-7, 123456789.123, 0, 0.5))
	f.Add(-1, uint8(2), words(4, 0, 0, 0, -7.5, math.NaN(), 64, 9.999e20, 1e-99, 1e300, 42, math.Inf(1)))
	f.Add(3, uint8(1), words(1, math.Inf(-1), 0, 1, 1, 1))
	f.Add(1<<40, uint8(0xff), words(math.SmallestNonzeroFloat64, math.MaxFloat64, -0.0, 1e-6, 1e21, -1e-300))
	f.Fuzz(func(t *testing.T, seq int, regimes uint8, data []byte) {
		var pts []model.Point
		for j := 0; j < 8 && len(data) >= 8*fuzzPointWords; j++ {
			w := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
			pts = append(pts, model.Point{
				Intensity: w(0), Regime: model.Regime((regimes >> (2 * (j % 4))) & 3),
				FlopsPerSec: w(1), UncappedFlopsPerSec: w(2),
				FlopsPerJoule: w(3), AvgPowerW: w(4), Throttle: w(5),
			})
			data = data[8*fuzzPointWords:]
		}
		wire := make([]rooflinePoint, 0, len(pts))
		for _, pt := range pts {
			wire = append(wire, rooflinePoint{
				Intensity:           pt.Intensity,
				Regime:              pt.Regime.Letter(),
				FlopsPerSec:         pt.FlopsPerSec,
				UncappedFlopsPerSec: pt.UncappedFlopsPerSec,
				FlopsPerJoule:       pt.FlopsPerJoule,
				AvgPowerW:           pt.AvgPowerW,
				Throttle:            nf(pt.Throttle),
			})
		}
		var want bytes.Buffer
		encErr := json.NewEncoder(&want).Encode(streamChunk{Seq: seq, Points: wire})
		got, ok := appendStreamChunk(nil, seq, pts)
		switch {
		case ok != (encErr == nil):
			t.Fatalf("appendStreamChunk ok = %v, encoding/json error = %v, for %+v", ok, encErr, pts)
		case ok && !bytes.Equal(got, want.Bytes()):
			t.Fatalf("encoder mismatch\n got: %s\nwant: %s", got, want.Bytes())
		}
	})
}
