package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"archline/internal/stats"
)

// tracer keeps the spans of a traced run in memory: one span per call
// the benchmark makes into a layer, with the span that caused it as
// parent. A nil *tracer records nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

type spanRec struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1; 0 is "no span").
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: now, end: -1})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// span runs fn inside a span named name and returns fn's duration.
func (t *tracer) span(name string, parent int, fn func(id int)) time.Duration {
	id := t.begin(name, parent)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	t.finish(id)
	return d
}

// durations returns the durations of every finished span named name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// write emits the spans as NDJSON in id order.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID      int    `json:"id"`
			Parent  int    `json:"parent,omitempty"`
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{i + 1, s.parent, s.name, int64(s.start), int64(s.end)}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// quantileDur is the q-quantile of ds in the given unit, NaN when empty.
func quantileDur(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return stats.Quantile(xs, q)
}
