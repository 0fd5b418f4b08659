package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"regiongrow"
	"regiongrow/client"
)

// segmentResponse is the JSON document returned by POST /v1/segment. Its
// meta blocks are the same wire structs the job records use (the typed
// Tie and the shared image meta marshal to identical JSON, so the
// response stays byte-compatible across the job-API redesign — pinned by
// test).
type segmentResponse struct {
	Engine string            `json:"engine"`
	Cache  string            `json:"cache"` // "hit" or "miss"
	Image  client.ImageMeta  `json:"image"`
	Config client.ConfigMeta `json:"config"`
	Result client.Result     `json:"result"`
}

// segmentRequest is a parsed and validated segmentation request — the
// common currency of /v1/segment, /v1/jobs, and /v1/batch.
type segmentRequest struct {
	SegmentParams
	im *regiongrow.Image
}

// SegmentParams is the validated form of the query parameters every
// submission endpoint shares, with the endpoint defaults (engine
// sequential, threshold 10, random ties, seed 1, the N/8 square cap,
// JSON out) already applied. The fleet gateway parses with the same
// function the server does, so routing-time cache keys can never be
// computed under different defaults than the backend will serve.
type SegmentParams struct {
	Kind      regiongrow.EngineKind
	Config    regiongrow.Config
	Format    string // "json" or "pgm"
	Labels    bool
	ImageName string // paper image by name; empty when the body carries a PGM
}

// ParseSegmentValues parses the submission query parameters into their
// validated form. It is a pure function of q: engine availability (the
// conditional dist kind) is checked by the serving layer, not here.
func ParseSegmentValues(q url.Values) (SegmentParams, error) {
	p := SegmentParams{
		Config: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1},
		Kind:   regiongrow.SequentialEngine,
		Format: "json",
	}
	var err error
	if v := q.Get("engine"); v != "" {
		if p.Kind, err = regiongrow.ParseEngineKind(v); err != nil {
			return p, err
		}
	}
	if v := q.Get("tie"); v != "" {
		if p.Config.Tie, err = regiongrow.ParseTiePolicy(v); err != nil {
			return p, err
		}
	}
	if v := q.Get("threshold"); v != "" {
		if p.Config.Threshold, err = strconv.Atoi(v); err != nil || p.Config.Threshold < 0 {
			return p, fmt.Errorf("bad threshold %q (want a non-negative integer)", v)
		}
	}
	if v := q.Get("seed"); v != "" {
		if p.Config.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return p, fmt.Errorf("bad seed %q (want an unsigned integer)", v)
		}
	}
	if v := q.Get("maxsquare"); v != "" {
		if p.Config.MaxSquare, err = strconv.Atoi(v); err != nil || p.Config.MaxSquare < -1 {
			return p, fmt.Errorf("bad maxsquare %q (want -1 for unbounded, 0 for the N/8 default, or a positive cap)", v)
		}
	}
	switch v := q.Get("format"); v {
	case "", "json":
		p.Format = "json"
	case "pgm":
		p.Format = "pgm"
	default:
		return p, fmt.Errorf("bad format %q (want json or pgm)", v)
	}
	p.Labels = q.Get("labels") == "1"
	p.ImageName = q.Get("image")
	return p, nil
}

// parseSegmentParams parses the query parameters shared by every
// submission endpoint, leaving image resolution to the caller.
func (s *Server) parseSegmentParams(q url.Values) (*segmentRequest, error) {
	p, err := ParseSegmentValues(q)
	if err != nil {
		return nil, err
	}
	return s.newSegmentRequest(p)
}

// newSegmentRequest checks that the parsed parameters name an engine this
// server runs.
func (s *Server) newSegmentRequest(p SegmentParams) (*segmentRequest, error) {
	if _, ok := s.segmenters[p.Kind]; !ok {
		// Only the Distributed kind is conditional: it exists when the
		// server was started with cluster workers.
		return nil, fmt.Errorf("engine %q is not enabled on this server (start regiongrowd with -cluster host:port,... to serve it)", p.Kind)
	}
	return &segmentRequest{SegmentParams: p}, nil
}

// parseSegmentRequest parses a full submission: the shared parameters
// plus the image, resolved from the paper-image name or the PGM body.
func (s *Server) parseSegmentRequest(r *http.Request) (*segmentRequest, error) {
	req, err := s.parseSegmentParams(r.URL.Query())
	if err != nil {
		return nil, err
	}
	if req.ImageName != "" {
		id, err := regiongrow.ParsePaperImageID(req.ImageName)
		if err != nil {
			return nil, err
		}
		req.im = regiongrow.GeneratePaperImage(id)
		return req, nil
	}
	im, err := regiongrow.ReadPGM(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, fmt.Errorf("request body exceeds the %d-byte upload limit: %w", tooBig.Limit, err)
		}
		return nil, fmt.Errorf("reading PGM body: %w (upload a P2/P5 PGM or pass ?image=image1…image6)", err)
	}
	req.im = im
	return req, nil
}

func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, err := s.parseSegmentRequest(r)
	if err != nil {
		s.metrics.failed.Add(1)
		BadRequest(w, err)
		return
	}

	// The synchronous path is a thin waiter over the same job machinery
	// /v1/jobs runs on: register a record, enqueue the compute, block on
	// the terminal signal. Only the context wiring differs — the job
	// shares the request context (plus the optional deadline), so a
	// disconnect cancels the compute within one iteration unless the
	// warm-abandoned policy detaches it.
	var waitCtx context.Context
	var cancel context.CancelFunc
	if s.opts.RequestTimeout > 0 {
		waitCtx, cancel = context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	} else {
		waitCtx, cancel = context.WithCancel(r.Context())
	}
	defer cancel()
	runCtx := waitCtx
	if s.opts.WarmAbandoned {
		runCtx = context.WithoutCancel(waitCtx)
	}
	// The record carries the real cancel, so a DELETE on the (normally
	// unrevealed) job ID aborts a non-warm synchronous compute just like
	// an async one.
	e, err := s.startJob(runCtx, cancel, req, true)
	if err != nil {
		if !s.rejectSubmission(w, err) {
			s.metrics.failed.Add(1)
		}
		return
	}
	defer e.release()
	ans, err := e.wait(waitCtx)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline fired. Unless WarmAbandoned keeps the
		// job running, the compute has been cancelled within one
		// split/merge iteration; tell the client how far it got.
		s.metrics.canceledDeadline.Add(1)
		http.Error(w, fmt.Sprintf("deadline exceeded after %v during %s",
			s.opts.RequestTimeout, e.stageText()), http.StatusGatewayTimeout)
		return
	case errors.Is(err, context.Canceled):
		// The client went away. Nobody is listening for this response,
		// and it is not a server failure; under WarmAbandoned the job
		// still completes on its worker and warms the cache.
		s.metrics.canceledDisconnect.Add(1)
		return
	default:
		s.metrics.failed.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.metrics.served.Add(1)

	if req.Format == "pgm" {
		w.Header().Set("Content-Type", "image/x-portable-graymap")
		w.Header().Set("X-Cache", e.cache)
		w.Header().Set("X-Final-Regions", strconv.Itoa(ans.seg.FinalRegions))
		// On a write error the headers are gone; nothing is left to do
		// but drop the connection.
		_ = regiongrow.WritePGM(w, regiongrow.Recolour(ans.seg, req.im))
		return
	}
	image, config := e.meta()
	WriteJSON(w, http.StatusOK, segmentResponse{
		Engine: req.Kind.String(),
		Cache:  e.cache,
		Image:  image,
		Config: config,
		Result: *buildResult(ans, req.Labels),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
