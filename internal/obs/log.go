package obs

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
)

// ctxHandler wraps a slog.Handler and stamps every record with the
// context's request ID and active span identifiers, so one grep over
// the JSON log lines follows a request through the whole stack.
type ctxHandler struct {
	inner   slog.Handler
	records *atomic.Int64
}

// Enabled delegates to the wrapped handler.
func (h ctxHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle counts the record and injects request/trace correlation
// attributes before delegating.
func (h ctxHandler) Handle(ctx context.Context, r slog.Record) error {
	if h.records != nil {
		h.records.Add(1)
	}
	if ctx != nil {
		if id, ok := RequestID(ctx); ok {
			r.AddAttrs(slog.String("request_id", id))
		}
		if span := SpanFrom(ctx); span != nil {
			r.AddAttrs(slog.String("trace", span.TraceID()), slog.Uint64("span", span.ID()))
		}
	}
	return h.inner.Handle(ctx, r)
}

// WithAttrs wraps the delegated handler's WithAttrs.
func (h ctxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return ctxHandler{inner: h.inner.WithAttrs(attrs), records: h.records}
}

// WithGroup wraps the delegated handler's WithGroup.
func (h ctxHandler) WithGroup(name string) slog.Handler {
	return ctxHandler{inner: h.inner.WithGroup(name), records: h.records}
}

// NewLogger returns a structured JSON logger writing to w, with
// request-ID and span correlation injected from the context passed to
// each logging call.
func NewLogger(w io.Writer) *slog.Logger {
	return slog.New(ctxHandler{inner: slog.NewJSONHandler(w, nil)})
}

// NewCountedLogger is NewLogger plus a counter of emitted records, for
// the obs_log_records_total self-metric.
func NewCountedLogger(w io.Writer) (*slog.Logger, func() int64) {
	n := &atomic.Int64{}
	return slog.New(ctxHandler{inner: slog.NewJSONHandler(w, nil), records: n}), n.Load
}

// nopHandler is disabled at every level, so slog drops each record
// before building or formatting it.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }

// NopLogger returns a logger that discards every record, so code can
// log unconditionally without nil checks.
func NopLogger() *slog.Logger {
	return slog.New(nopHandler{})
}
