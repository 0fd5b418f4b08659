package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"regiongrow"
	"regiongrow/client"
)

// jobContext builds the lifecycle context of an asynchronous job:
// detached from any HTTP request (the submitting connection ends at 202),
// cancellable by DELETE, and bounded by the server's RequestTimeout when
// one is configured.
func (s *Server) jobContext() (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(context.Background(), s.opts.RequestTimeout)
	}
	return context.WithCancel(context.Background())
}

// startJob registers a job record for req and launches its compute on the
// pool under ctx. Cache hits complete the record immediately without
// touching the pool. cancel is stored on the record (DELETE calls it) and
// is always released when the job ends. internal marks synchronous-path
// records, whose IDs no client ever learns — they skip the wire Result so
// the sync path keeps its pre-job-machinery memory and hit throughput.
// The error is ErrQueueFull, ErrStoreFull, or ErrClosed — all
// submission-time rejections; once a record is returned, it is guaranteed
// to reach a terminal state.
func (s *Server) startJob(ctx context.Context, cancel context.CancelFunc, req *segmentRequest, internal bool) (*jobEntry, error) {
	hash := regiongrow.HashImage(req.im)
	key := regiongrow.CacheKeyForHash(hash, req.im.W, req.im.H, req.Config, req.Kind)
	e := newJobEntry(req, hash, s.opts.Instance, cancel, &s.metrics.progress)
	e.internal = internal
	ans, hit := s.cache.Get(key)
	if hit {
		e.cache = "hit"
	}
	if err := s.jobs.add(e); err != nil {
		cancel()
		return nil, err
	}
	if hit {
		s.jobs.complete(e, ans, nil)
		cancel()
		return e, nil
	}
	// The whole job runs on its worker, the one point where compute has
	// truly ended under every policy and SegmentFunc: the region
	// statistics are computed, the cache warms and the record settles
	// there, even for a warm-abandoned job whose client has gone.
	// Cancelled compute settles the record with its context error and
	// records nothing else.
	err := s.pool.Enqueue(func() {
		start := time.Now()
		var seg *regiongrow.Segmentation
		var ans *answer
		err := ctx.Err()
		if err == nil {
			seg, err = s.compute(ctx, req.im, req.Config, req.Kind, e)
		}
		if err == nil {
			s.metrics.observe(req.Kind, time.Since(start))
			ans = &answer{seg: seg, regions: regiongrow.ComputeRegionStats(seg, req.im)}
			s.cache.Put(key, ans)
		}
		s.jobs.complete(e, ans, err)
		cancel()
	})
	if err != nil {
		s.jobs.remove(e)
		cancel()
		return nil, err
	}
	return e, nil
}

// WriteJSON serves v as indented JSON under status. The fleet gateway
// answers through it too.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// BadRequest answers a submission whose parameters or body failed to
// parse: 413 when the body outgrew its size limit, 400 otherwise. The
// fleet gateway answers its own parse failures through it too.
func BadRequest(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
}

// rejectSubmission translates submission-time errors to HTTP statuses. It
// reports whether it answered 429, which every endpoint counts as
// rejected; /v1/segment counts the 503 and 500 answers as failed.
func (s *Server) rejectSubmission(w http.ResponseWriter, err error) (busy bool) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrStoreFull):
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error()+", retry later", http.StatusTooManyRequests)
		return true
	case errors.Is(err, ErrClosed):
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return false
}

// lookupJob resolves the {id} path value to its record, answering 404
// itself when there is none.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*jobEntry, bool) {
	id := r.PathValue("id")
	e, ok := s.jobs.get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %q (expired, evicted, or never submitted)", id), http.StatusNotFound)
	}
	return e, ok
}

// handleJobSubmit answers POST /v1/jobs: parse the same body and
// parameters as /v1/segment, enqueue the compute, and answer 202 with the
// queued (or, on a cache hit, already-done) record. With ?stream=1 the
// request takes the streaming path instead — synchronous, uncached, and
// unbounded by MaxBodyBytes (see handleJobStream) — so the dispatch runs
// before the body limit is installed.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stream") == "1" {
		s.handleJobStream(w, r)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, err := s.parseSegmentRequest(r)
	if err != nil {
		BadRequest(w, err)
		return
	}
	ctx, cancel := s.jobContext()
	e, err := s.startJob(ctx, cancel, req, false)
	if err != nil {
		s.rejectSubmission(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, e.snapshot())
}

// handleJobGet answers GET /v1/jobs/{id} with the current record.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if e, ok := s.lookupJob(w, r); ok {
		WriteJSON(w, http.StatusOK, e.snapshot())
	}
}

// handleJobDelete answers DELETE /v1/jobs/{id}: cancel the job's context
// — a queued job dies before computing, a running one aborts within one
// split/merge iteration — and answer 202 with a snapshot (which may still
// read running; the terminal canceled record follows on the event
// stream). Terminal jobs are unaffected.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	if e, ok := s.lookupJob(w, r); ok {
		e.cancel()
		WriteJSON(w, http.StatusAccepted, e.snapshot())
	}
}

// handleJobEvents answers GET /v1/jobs/{id}/events: the job's stage
// events as Server-Sent Events — a full replay for late subscribers, then
// live follow — terminated by a done/failed/canceled event whose data is
// the final record. Frames:
//
//	id: <sequence>
//	event: stage
//	data: {"kind":"merge-iteration","iteration":3,"merges":17}
//
//	id: <sequence>
//	event: done
//	data: {<the same JSON record GET /v1/jobs/{id} serves>}
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	next := 0
	for {
		e.mu.Lock()
		pending := e.events[next:]
		terminal := e.state.Terminal()
		changed := e.changed
		e.mu.Unlock()

		for _, ev := range pending {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: stage\ndata: %s\n\n", next, data); err != nil {
				return
			}
			next++
		}
		if terminal {
			name, data := e.terminalFrame()
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", next, name, data)
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleBatch answers POST /v1/batch: fan a multi-item submission out
// through the job machinery, one job per item, answering 202 with
// per-item job IDs (or per-item errors — items fail independently). Two
// bodies are accepted: a JSON manifest of paper-image/config pairs, or a
// multipart/form-data set of PGM files sharing the query-parameter
// config.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var results []client.BatchResult
	var err error
	if strings.HasPrefix(ct, "multipart/") {
		results, err = s.batchMultipart(r)
	} else {
		results, err = s.batchManifest(r)
	}
	if err != nil {
		BadRequest(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, client.BatchResponse{Jobs: results})
}

// submitBatchItem runs one already-parsed item through the job machinery
// and records its ID or error.
func (s *Server) submitBatchItem(i int, req *segmentRequest, parseErr error) client.BatchResult {
	res := client.BatchResult{Index: i}
	if parseErr != nil {
		res.Error = parseErr.Error()
		return res
	}
	ctx, cancel := s.jobContext()
	e, err := s.startJob(ctx, cancel, req, false)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.ID = e.id
	return res
}

func (s *Server) batchManifest(r *http.Request) ([]client.BatchResult, error) {
	m, err := DecodeBatchManifest(r.Body)
	if err != nil {
		return nil, err
	}
	results := make([]client.BatchResult, 0, len(m.Items))
	for i, item := range m.Items {
		req, err := s.batchItemRequest(item)
		results = append(results, s.submitBatchItem(i, req, err))
	}
	return results, nil
}

// DecodeBatchManifest decodes a JSON batch body. It rejects unknown
// fields, so a misspelled one never silently runs its item under the
// defaults, and a manifest with no items. The server and the fleet
// gateway both decode through it, so the edge accepts exactly the
// manifests a backend accepts.
func DecodeBatchManifest(r io.Reader) (client.BatchManifest, error) {
	var m client.BatchManifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("decoding batch manifest: %w (want {\"items\":[{\"image\":\"image1\",…}]} or a multipart set of PGMs)", err)
	}
	if len(m.Items) == 0 {
		return m, errors.New("batch manifest has no items")
	}
	return m, nil
}

// ParseBatchItem resolves one manifest item to its validated parameters
// and the paper image it names. The item maps onto the /v1/jobs query
// parameters it mirrors and goes through ParseSegmentValues, so a
// manifest can never default or validate differently from the query
// surface — or differently at the edge than at the backend.
func ParseBatchItem(item client.BatchItem) (SegmentParams, regiongrow.PaperImageID, error) {
	p, err := ParseSegmentValues(batchItemQuery(item))
	if err != nil {
		return p, 0, err
	}
	if p.ImageName == "" {
		return p, 0, errors.New("batch item names no image (JSON manifests segment the paper images; upload PGMs as a multipart batch)")
	}
	id, err := regiongrow.ParsePaperImageID(p.ImageName)
	return p, id, err
}

// batchItemQuery maps one manifest item onto the /v1/jobs query
// parameters it mirrors.
func batchItemQuery(item client.BatchItem) url.Values {
	q := url.Values{}
	if item.Engine != "" {
		q.Set("engine", item.Engine)
	}
	if item.Tie != "" {
		q.Set("tie", item.Tie)
	}
	if item.Threshold != nil {
		q.Set("threshold", strconv.Itoa(*item.Threshold))
	}
	if item.Seed != nil {
		q.Set("seed", strconv.FormatUint(*item.Seed, 10))
	}
	if item.MaxSquare != 0 {
		q.Set("maxsquare", strconv.Itoa(item.MaxSquare))
	}
	if item.Labels {
		q.Set("labels", "1")
	}
	q.Set("image", item.Image)
	return q
}

// batchItemRequest resolves one manifest item and checks its engine is
// served here.
func (s *Server) batchItemRequest(item client.BatchItem) (*segmentRequest, error) {
	p, id, err := ParseBatchItem(item)
	if err != nil {
		return nil, err
	}
	req, err := s.newSegmentRequest(p)
	if err != nil {
		return nil, err
	}
	req.im = regiongrow.GeneratePaperImage(id)
	return req, nil
}

func (s *Server) batchMultipart(r *http.Request) ([]client.BatchResult, error) {
	template, err := s.parseSegmentParams(r.URL.Query())
	if err != nil {
		return nil, err
	}
	if template.ImageName != "" {
		return nil, errors.New("multipart batches segment their uploaded PGMs; drop the image query parameter")
	}
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, fmt.Errorf("reading multipart batch: %w", err)
	}
	var results []client.BatchResult
	for i := 0; ; i++ {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			if len(results) == 0 {
				return nil, fmt.Errorf("reading multipart batch part %d: %w", i, err)
			}
			// Earlier parts are already enqueued; aborting now would
			// orphan their job IDs. Report the broken framing as this
			// item's error and answer with what was accepted — items
			// fail independently, even against a truncated body.
			results = append(results, client.BatchResult{
				Index: i,
				Error: fmt.Sprintf("reading multipart batch part %d: %v", i, err),
			})
			return results, nil
		}
		im, err := regiongrow.ReadPGM(part)
		part.Close()
		if err != nil {
			results = append(results, s.submitBatchItem(i, nil, fmt.Errorf("part %d: reading PGM: %w", i, err)))
			continue
		}
		req := *template
		req.im = im
		results = append(results, s.submitBatchItem(i, &req, nil))
	}
	if len(results) == 0 {
		return nil, errors.New("multipart batch has no parts")
	}
	return results, nil
}
