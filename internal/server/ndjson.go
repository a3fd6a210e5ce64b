package server

import (
	"bufio"
	"compress/gzip"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"archline/internal/model"
)

// The stream hot path hand-rolls its chunk lines instead of reflecting
// through encoding/json: the chunk schema is fixed, so an append-based
// encoder writing into a pooled buffer makes a flushed chunk cost zero
// allocations. The byte output is identical to what json.Encoder
// produces for the equivalent streamChunk value — same float
// formatting, same field order, same omission rules, same
// drop-the-whole-line behaviour on non-finite values — which the
// encoder tests and the stream golden test pin, so clients cannot tell
// the encoders apart.

// pointBufs recycles per-chunk evaluation buffers. Capacity is
// maxChunkPoints, the largest chunk a request may ask for, so
// Kernel.AppendLogSpace never grows one.
var pointBufs = sync.Pool{
	New: func() any {
		b := make([]model.Point, 0, maxChunkPoints)
		return &b
	},
}

// lineBufs recycles NDJSON chunk line buffers. A line may outgrow the
// initial capacity (maxChunkPoints-sized chunks run ~400 KiB); callers
// put the grown slice back so the pool converges on the working size.
var lineBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1<<14)
		return &b
	},
}

// appendJSONFloat appends f rendered exactly as encoding/json renders a
// float64: shortest round-trip form, 'f' format switching to 'e' for
// very small or very large magnitudes, with the exponent's leading zero
// stripped. It reports false for non-finite values — encoding/json
// refuses to marshal those — and the caller must then drop the whole
// line (dst may hold a partial append).
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json canonicalizes exponents: e-07 becomes e-7.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// appendStreamPoint appends one point object in the rooflinePoint wire
// schema. The omission rules replicate the struct tags byte for byte:
// uncapped_flops_per_sec is omitempty (dropped when zero) and throttle
// is the nf-boxed pointer (dropped when non-finite, kept when finite —
// including zero). The regime letter is appended unescaped, which is
// exact because Regime.Letter returns single ASCII letters that JSON
// string encoding passes through verbatim.
func appendStreamPoint(dst []byte, pt model.Point) ([]byte, bool) {
	var ok bool
	dst = append(dst, `{"intensity":`...)
	if dst, ok = appendJSONFloat(dst, pt.Intensity); !ok {
		return dst, false
	}
	dst = append(dst, `,"regime":"`...)
	dst = append(dst, pt.Regime.Letter()...)
	dst = append(dst, `","flops_per_sec":`...)
	if dst, ok = appendJSONFloat(dst, pt.FlopsPerSec); !ok {
		return dst, false
	}
	if pt.UncappedFlopsPerSec != 0 {
		dst = append(dst, `,"uncapped_flops_per_sec":`...)
		if dst, ok = appendJSONFloat(dst, pt.UncappedFlopsPerSec); !ok {
			return dst, false
		}
	}
	dst = append(dst, `,"flops_per_joule":`...)
	if dst, ok = appendJSONFloat(dst, pt.FlopsPerJoule); !ok {
		return dst, false
	}
	dst = append(dst, `,"avg_power_w":`...)
	if dst, ok = appendJSONFloat(dst, pt.AvgPowerW); !ok {
		return dst, false
	}
	if !math.IsNaN(pt.Throttle) && !math.IsInf(pt.Throttle, 0) {
		dst = append(dst, `,"throttle":`...)
		dst, _ = appendJSONFloat(dst, pt.Throttle)
	}
	return append(dst, '}'), true
}

// appendStreamChunk appends one full NDJSON chunk line (newline
// included) for chunk seq. A false report means some required value was
// non-finite: json.Encoder would have failed the whole Encode and
// written nothing, so the caller drops the line — the chunk still
// counts toward the trailer totals, exactly as the silently ignored
// Encode error used to behave.
func appendStreamChunk(dst []byte, seq int, pts []model.Point) ([]byte, bool) {
	var ok bool
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, `,"points":[`...)
	for i := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, ok = appendStreamPoint(dst, pts[i]); !ok {
			return dst, false
		}
	}
	return append(dst, ']', '}', '\n'), true
}

// streamWriteGrace is how long past the request deadline an NDJSON
// stream may keep writing: enough for a reading client to receive the
// chunk in flight and the deadline_exceeded trailer, short enough that
// a stalled reader gives back its handler soon after the deadline.
const streamWriteGrace = 500 * time.Millisecond

// streamGzipLevel is the compression level of NDJSON streams. Each
// line is deflated and sync-flushed on its own, so the level's per-byte
// cost dominates: on a 2^18-point sweep body (53.5 MB) BestSpeed
// deflated in 37% of the default level's time for 19.4% of the
// identity bytes instead of 17.2% (DESIGN.md §10). Buffered responses
// stay at the default level (gzipWriters): their bodies are small, so
// level 1 loses ratio and saves no measurable CPU there.
const streamGzipLevel = gzip.BestSpeed

// streamGzipWriters recycles the stream compressors, kept apart from
// gzipWriters because Reset cannot change a writer's level.
var streamGzipWriters = sync.Pool{
	New: func() any {
		gz, _ := gzip.NewWriterLevel(io.Discard, streamGzipLevel) // the level is valid
		return gz
	},
}

// streamBufSize sizes the buffer between a stream's compressor and the
// ResponseWriter. flate emits its output in writes of a few hundred
// bytes; straight into the ResponseWriter each 2 KiB of them would
// become one HTTP chunk with its own formatted size header. 32 KiB
// turns a line's compressed bytes into one or a few chunks.
const streamBufSize = 32 << 10

// streamBufs recycles the buffers of size streamBufSize.
var streamBufs = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, streamBufSize) },
}

// startNDJSON begins the 200 response of an NDJSON stream (the sweep
// stream and job events): it sets the headers, gzips the body at
// streamGzipLevel through a streamBufSize buffer when the client
// negotiated it, and bounds every write by the request deadline plus
// streamWriteGrace. A context deadline cannot unblock a TCP write, so
// without the connection's write deadline a client that stops reading
// would pin the handler, and its in-flight slot, for as long as it
// liked. It returns the body writer, a flush that pushes each NDJSON
// line through the gzip frame, the buffer and the HTTP chunked writer
// to the client, and a finish the caller must defer: it closes the
// gzip frame, flushes it under the deadline, and clears the deadline
// so it cannot outlive the request on a keep-alive connection (older
// net/http releases do not reset it between requests).
func startNDJSON(w http.ResponseWriter, r *http.Request) (out io.Writer, flush, finish func()) {
	rc := http.NewResponseController(w)
	// The error is ErrNotSupported from writers with no connection (the
	// in-process recorders), which have no socket to stall on.
	if deadline, ok := r.Context().Deadline(); ok {
		_ = rc.SetWriteDeadline(deadline.Add(streamWriteGrace))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	out = w
	var (
		gz *gzip.Writer
		bw *bufio.Writer
	)
	if acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Add("Vary", "Accept-Encoding")
		bw = streamBufs.Get().(*bufio.Writer)
		bw.Reset(w)
		gz = streamGzipWriters.Get().(*gzip.Writer)
		gz.Reset(bw)
		out = gz
	}
	w.WriteHeader(http.StatusOK)
	// Flush failures mean the client went away or stalled past the
	// deadline; the handlers' context checks and trailers take it from
	// there.
	flush = func() {
		if gz != nil {
			_ = gz.Flush()
			_ = bw.Flush()
		}
		_ = rc.Flush()
	}
	finish = func() {
		if gz != nil {
			_ = gz.Close()
			_ = bw.Flush()
			streamGzipWriters.Put(gz)
			streamBufs.Put(bw)
		}
		_ = rc.Flush()
		_ = rc.SetWriteDeadline(time.Time{})
	}
	return out, flush, finish
}
