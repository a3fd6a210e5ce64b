package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// conns is the benchmark's connection budget: one load process holds at
// most this many keep-alive connections (the CI host's CPU count).
const conns = 2

// conn is one keep-alive HTTP/1.1 connection to the daemon.
type conn struct {
	hc   *http.Client
	base string
}

func newConns(base string, n int) []*conn {
	out := make([]*conn, n)
	for i := range out {
		out[i] = &conn{base: base, hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				// Bodies are checked as sent: gzip is negotiated explicitly
				// and decompressed after the clock stops.
				DisableCompression: true,
			},
		}}
	}
	return out
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// result is one finished request.
type result struct {
	req        *request
	due, sent  time.Time // due: when the schedule wanted it sent
	dispatched time.Time // when the generator queued it
	done       time.Time
	status     int
	encoding   string // response Content-Encoding
	body       []byte // kept for requests whose answers are checked
	wireBytes  int    // response body bytes as received
	err        error
}

// ok reports a 2xx answer without transport error.
func (r *result) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// failedLatencyMS is the latency a failed request counts as: it never
// meets a latency limit.
const failedLatencyMS = 60_000

// latency is the time (ms) from due to done.
func (r *result) latency() float64 {
	if !r.ok() {
		return failedLatencyMS
	}
	return float64(r.done.Sub(r.due)) / float64(time.Millisecond)
}

// wire is the time from send to done.
func (r *result) wire() time.Duration { return r.done.Sub(r.sent) }

// keepBody says which answers the checks need.
func keepBody(r *request) bool {
	return r.items != nil || r.upload != nil || r.points > 0
}

// do sends one request and fills res.
func (c *conn) do(res *result, tr *tracer, parent int) {
	r := res.req
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, body)
	if err != nil {
		res.err = err
		return
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	} else {
		req.Header.Set("Accept-Encoding", "identity")
	}
	id := tr.begin("http."+r.route, parent)
	res.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		res.done = time.Now()
		tr.finish(id)
		res.err = err
		return
	}
	res.status = resp.StatusCode
	res.encoding = resp.Header.Get("Content-Encoding")
	if keepBody(r) {
		res.body, res.err = io.ReadAll(resp.Body)
		res.wireBytes = len(res.body)
	} else {
		n, err := io.Copy(io.Discard, resp.Body)
		res.wireBytes, res.err = int(n), err
	}
	_ = resp.Body.Close()
	res.done = time.Now()
	tr.finish(id)
}

// openLoop sends reqs on a fixed schedule at rate per second over cs.
// A generator goroutine queues each request when it falls due; the
// connections take requests from the queue in order, so a stall delays
// later requests instead of dropping them, and each request is timed
// from when it was due.
func openLoop(cs []*conn, reqs []*request, rate float64, tr *tracer, parent int) []result {
	out := make([]result, len(reqs))
	// Sized to every request of the run, so the generator never blocks.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range queue {
				c.do(&out[i], tr, parent)
			}
		}(c)
	}
	// The generator sleeps in the kernel on its own thread: the Go
	// runtime rounds sleeps under a millisecond up to one, which would
	// add up to a millisecond of lag to every request at 1000 req/s.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / rate
	for i := range reqs {
		due := t0.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		out[i].req, out[i].due, out[i].dispatched = reqs[i], due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// send issues one closed-loop request: it is due when the benchmark is
// ready to send it.
func (c *conn) send(r *request, tr *tracer, parent int) result {
	res := result{req: r, due: time.Now()}
	res.dispatched = res.due
	c.do(&res, tr, parent)
	return res
}

// latencies returns the due-to-done latencies (ms) of results whose
// route passes keep.
func latencies(rs []result, keep func(*request) bool) []float64 {
	var out []float64
	for i := range rs {
		if keep(rs[i].req) {
			out = append(out, rs[i].latency())
		}
	}
	return out
}

// genLag returns how late (ms) the generator queued each request.
func genLag(rs []result) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = float64(rs[i].dispatched.Sub(rs[i].due)) / float64(time.Millisecond)
	}
	return out
}
