package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"

	"regiongrow"
)

// handleJobStream answers POST /v1/jobs?stream=1: the streaming
// segmentation path. The uploaded PGM pipes straight through the banded
// streaming engine into a chunked response — the raster is never resident
// on the server, which is what admits inputs far beyond the job paths'
// upload limit (the MaxBodyBytes cap does not apply here; the streaming
// reader's own pixel-count limit bounds the work instead). Memory is
// O(band + squares): the region graph keeps a vertex per split square,
// and on noise-like input that is one per pixel (79–86 B of live heap per
// pixel), so no byte bound holds for such an upload.
//
// The path is synchronous and stateless by design: no job record, no
// worker-pool slot, no result cache — a gigapixel label raster has no
// business in an LRU — so it coexists with the job machinery without
// distorting its capacity planning. Output is the recoloured PGM, or with
// labels=1 the raw label raster (RGLS wire format); both are byte-identical
// to segmenting the same image with the sequential engine. The final
// region count arrives as the X-Final-Regions HTTP trailer, since the
// body starts streaming before the count is known to the client.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	q := r.URL.Query()
	p, err := ParseSegmentValues(q)
	if err != nil {
		s.metrics.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch {
	case q.Get("engine") != "" && p.Kind != regiongrow.SequentialEngine:
		s.metrics.failed.Add(1)
		http.Error(w, "stream=1 runs the streaming engine (sequential-identical output); drop the engine parameter", http.StatusBadRequest)
		return
	case p.ImageName != "":
		s.metrics.failed.Add(1)
		http.Error(w, "stream=1 segments its uploaded PGM body; drop the image parameter", http.StatusBadRequest)
		return
	case q.Get("format") == "json":
		s.metrics.failed.Add(1)
		http.Error(w, "stream=1 streams rasters, not JSON (default: recoloured PGM; labels=1: the raw label raster)", http.StatusBadRequest)
		return
	}
	output := regiongrow.StreamRecolour
	contentType := "image/x-portable-graymap"
	if p.Labels {
		output = regiongrow.StreamLabels
		contentType = "application/octet-stream"
	}

	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}

	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Cache", "bypass")
	w.Header().Set("Trailer", "X-Final-Regions")
	cw := &countingWriter{w: w}
	res, err := regiongrow.SegmentStream(ctx, r.Body, cw, p.Config,
		regiongrow.WithStreamOutput(output))
	if err != nil {
		if cw.n > 0 {
			// The response is already streaming; all that is left is to
			// truncate it. The declared geometry in the output header lets
			// the client detect the short body.
			s.metrics.failed.Add(1)
			return
		}
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.canceledDeadline.Add(1)
			http.Error(w, "deadline exceeded before the output stream started", http.StatusGatewayTimeout)
		case errors.Is(err, context.Canceled):
			s.metrics.canceledDisconnect.Add(1)
		default:
			s.metrics.failed.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	w.Header().Set("X-Final-Regions", strconv.Itoa(res.FinalRegions))
	s.metrics.served.Add(1)
}

// countingWriter counts bytes through to its target, telling the stream
// handler whether an error arrived before or after the response committed.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
