package server

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"net/http"

	"archline/internal/model"
)

// Streaming sweep bounds. The buffered sweep endpoints cap at maxPoints
// because they must hold the whole response; the stream holds only one
// chunk, so its grid cap is generous.
const (
	streamMaxPoints    = 1 << 20
	defaultChunkPoints = 512
	maxChunkPoints     = 4096
)

// sweepStreamRequest asks for a roofline sweep delivered as NDJSON
// chunks: a platform, a precision, the intensity grid, and the chunk
// granularity.
type sweepStreamRequest struct {
	platformRef
	Precision string `json:"precision,omitempty"`
	sweepGrid
	// ChunkPoints is how many grid points each NDJSON chunk carries.
	// Zero takes defaultChunkPoints; the cap is maxChunkPoints.
	ChunkPoints int `json:"chunk_points,omitempty"`
}

// streamHeader is the first NDJSON line: the sweep's identity and shape,
// so a consumer can size progress bars before any points arrive.
type streamHeader struct {
	PlatformID  string  `json:"platform_id,omitempty"`
	Name        string  `json:"name"`
	Precision   string  `json:"precision"`
	IMin        float64 `json:"imin"`
	IMax        float64 `json:"imax"`
	Points      int     `json:"points"`
	ChunkPoints int     `json:"chunk_points"`
}

// streamChunk is one flushed slice of the sweep. The handler does not
// marshal this struct on the hot path — appendStreamChunk hand-rolls
// the identical bytes into a pooled buffer — but the type remains the
// schema of record: the encoder tests marshal it through encoding/json
// and byte-compare.
type streamChunk struct {
	Seq    int             `json:"seq"`
	Points []rooflinePoint `json:"points"`
}

// streamTrailer is the final NDJSON line. Done is true only when every
// chunk was delivered; a mid-stream failure (the status line is long
// gone by then) instead ends the stream with Error set and Done false.
type streamTrailer struct {
	Done   bool       `json:"done"`
	Chunks int        `json:"chunks"`
	Points int        `json:"points"`
	Error  *errorBody `json:"error,omitempty"`
}

// handleSweepStream serves POST /v1/sweep/stream: an arbitrarily large
// roofline sweep as newline-delimited JSON, flushed chunk by chunk so
// server memory stays constant in the grid size (one chunk buffered,
// never the full response) and clients can start consuming immediately.
// Responses are not cached — the stream is recomputed per request and
// counts as one model evaluation.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) (any, *apiError) {
	var req sweepStreamRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	plat, _, aerr := s.resolvePlatform(req.platformRef)
	if aerr != nil {
		return nil, aerr
	}
	p, aerr := paramsFor(plat, req.Precision)
	if aerr != nil {
		return nil, aerr
	}
	precision := req.Precision
	if precision == "" {
		precision = "single"
	}
	g := req.sweepGrid.orDefaults()
	if !(g.IMin > 0) || math.IsInf(g.IMin, 0) {
		return nil, errBadRequest("imin must be a positive finite intensity, got %g", g.IMin)
	}
	if !(g.IMax > g.IMin) || math.IsInf(g.IMax, 0) {
		return nil, errBadRequest("imax must exceed imin, got [%g, %g]", g.IMin, g.IMax)
	}
	if g.Points < 2 || g.Points > streamMaxPoints {
		return nil, errBadRequest("points must be in [2, %d] for streaming sweeps, got %d",
			streamMaxPoints, g.Points)
	}
	chunk := req.ChunkPoints
	if chunk == 0 {
		chunk = defaultChunkPoints
	}
	if chunk < 1 || chunk > maxChunkPoints {
		return nil, errBadRequest("chunk_points must be in [1, %d], got %d", maxChunkPoints, chunk)
	}

	s.noteEval()
	w.Header().Set("Content-Type", "application/x-ndjson")
	var out io.Writer = w
	var gz *gzip.Writer
	if acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Add("Vary", "Accept-Encoding")
		gz = gzipWriters.Get().(*gzip.Writer)
		gz.Reset(w)
		defer func() {
			_ = gz.Close()
			gzipWriters.Put(gz)
		}()
		out = gz
	}
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	// flush pushes one NDJSON line's bytes all the way to the client:
	// through the gzip frame first, then the HTTP chunked writer.
	flush := func() {
		if gz != nil {
			_ = gz.Flush()
		}
		if canFlush {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(out)
	// Encode failures past this point mean the client went away; the
	// trailer protocol below is the only error channel left.
	_ = enc.Encode(streamHeader{
		PlatformID: string(plat.ID), Name: plat.Name, Precision: precision,
		IMin: g.IMin, IMax: g.IMax, Points: g.Points, ChunkPoints: chunk,
	})
	flush()

	// The grid is generated on the fly (the LogSpace formula, never
	// materialized) and buffered one chunk at a time: the kernel
	// evaluates a chunk into a pooled point buffer and the hand-rolled
	// encoder renders it into a pooled line buffer, so the steady-state
	// loop allocates nothing regardless of the grid size.
	k := model.NewKernel(p)
	l0, l1 := math.Log(g.IMin), math.Log(g.IMax)
	ptsPtr := pointBufs.Get().(*[]model.Point)
	linePtr := lineBufs.Get().(*[]byte)
	defer func() {
		pointBufs.Put(ptsPtr)
		lineBufs.Put(linePtr)
	}()
	chunks := 0
	ctx := r.Context()
	for start := 0; start < g.Points; start += chunk {
		if err := ctx.Err(); err != nil {
			aerr := errTimeout()
			_ = enc.Encode(streamTrailer{Chunks: chunks, Points: start,
				Error: &errorBody{Code: aerr.Code, Status: aerr.Status, Message: aerr.Message}})
			flush()
			return nil, nil
		}
		end := start + chunk
		if end > g.Points {
			end = g.Points
		}
		pts := k.AppendLogSpace((*ptsPtr)[:0], l0, l1, start, end, g.Points)
		line, ok := appendStreamChunk((*linePtr)[:0], chunks, pts)
		*linePtr = line[:0] // keep any growth for the next chunk
		if ok {
			// A failed write means the client went away — same silent
			// treatment the encoder errors get.
			_, _ = out.Write(line)
		}
		flush()
		chunks++
	}
	_ = enc.Encode(streamTrailer{Done: true, Chunks: chunks, Points: g.Points})
	flush()
	return nil, nil
}
