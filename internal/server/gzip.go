package server

import (
	"compress/gzip"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// gzipMinBytes is the smallest response body worth compressing: below
// this the gzip frame overhead and the extra CPU beat the transfer
// saving. Error envelopes and small query responses go out raw.
const gzipMinBytes = 1024

// gzipWriters recycles the buffered responses' compressors, at the
// default level, across requests; a gzip.Writer's allocation dwarfs a
// small response body. NDJSON streams have their own pool
// (streamGzipWriters).
var gzipWriters = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// acceptsGzip reports whether the request negotiated gzip via
// Accept-Encoding. Parsing is deliberately small: any "gzip" (or "*")
// token accepts unless its q-value is explicitly zero.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, hasParams := strings.Cut(strings.TrimSpace(part), ";")
		enc = strings.TrimSpace(enc)
		if !strings.EqualFold(enc, "gzip") && enc != "*" {
			continue
		}
		if hasParams {
			if v, ok := strings.CutPrefix(strings.ReplaceAll(params, " ", ""), "q="); ok {
				if q, err := strconv.ParseFloat(v, 64); err == nil && q == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

// writeResponseNegotiated emits an encoded body, gzip-compressed when
// the client negotiated it and the body is large enough to profit. The
// cache stores bodies uncompressed (one canonical form, byte-identical
// hits for every client), so compression happens at write time.
func writeResponseNegotiated(w http.ResponseWriter, r *http.Request, resp *cachedResponse) {
	if len(resp.body) < gzipMinBytes || !acceptsGzip(r) {
		writeResponse(w, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Add("Vary", "Accept-Encoding")
	w.WriteHeader(resp.status)
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	// A failed write means the client went away; same no-recovery rule
	// as writeResponse.
	_, _ = gz.Write(resp.body)
	_ = gz.Close()
	gzipWriters.Put(gz)
}
