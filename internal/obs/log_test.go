package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
)

func TestLoggerInjectsCorrelation(t *testing.T) {
	var logBuf, traceBuf bytes.Buffer
	logger, count := NewCountedLogger(&logBuf)
	tr := NewTracer(&traceBuf)
	ctx := WithRequestID(WithTracer(context.Background(), tr), "req-42")
	ctx, span := Start(ctx, "op")
	defer span.End()

	logger.LogAttrs(ctx, slog.LevelInfo, "hello", slog.String("k", "v"))

	var rec map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, logBuf.String())
	}
	if rec["msg"] != "hello" || rec["k"] != "v" {
		t.Errorf("record = %v", rec)
	}
	if rec["request_id"] != "req-42" {
		t.Errorf("request_id = %v, want req-42", rec["request_id"])
	}
	if rec["trace"] != span.TraceID() || rec["span"] != float64(span.ID()) {
		t.Errorf("trace/span correlation missing: %v", rec)
	}
	if n := count(); n != 1 {
		t.Errorf("record count = %d, want 1", n)
	}
}

func TestLoggerWithoutContextValues(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf)
	logger.LogAttrs(context.Background(), slog.LevelWarn, "plain")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if _, has := rec["request_id"]; has {
		t.Error("bare context must not inject request_id")
	}
	if _, has := rec["trace"]; has {
		t.Error("bare context must not inject trace")
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	// Must not panic, even with a nil-ish context chain.
	NopLogger().LogAttrs(context.Background(), slog.LevelError, "into the void")
}

func TestNopLoggerDoesNotAllocate(t *testing.T) {
	logger := NopLogger()
	if logger.Enabled(context.Background(), slog.LevelError) {
		t.Error("NopLogger is enabled at LevelError; records would be formatted")
	}
	allocs := testing.AllocsPerRun(100, func() {
		// Six attributes: one more than a slog.Record stores inline, so
		// building the record at all would allocate.
		logger.Info("request", "endpoint", "/v1/query", "method", "POST", "status", 200,
			"dur_s", 1.25e-4, "request_id", "req-42", "trace", "0af7651916cd43dd")
	})
	if allocs != 0 {
		t.Errorf("NopLogger().Info allocated %.0f times per call, want 0", allocs)
	}
}
