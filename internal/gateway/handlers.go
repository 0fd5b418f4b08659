package gateway

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"regiongrow"
	"regiongrow/client"
	"regiongrow/internal/server"
)

// admit runs the edge admission checks for a submission that would
// enqueue n jobs: the per-client token bucket first (429 with a
// Retry-After telling the client when its budget refills), then the
// gateway-wide in-flight cap. It reports whether the request may
// proceed; on true the caller owes a call to the returned release.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request, n int) (release func(), ok bool) {
	if allowed, retry := g.limiter.allow(clientKey(r.RemoteAddr), n); !allowed {
		g.metrics.rateLimited.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
		http.Error(w, "rate limit exceeded for this client, retry later", http.StatusTooManyRequests)
		return nil, false
	}
	if cap := int64(g.opts.MaxInFlight); cap > 0 {
		if g.metrics.inflight.Add(int64(n)) > cap {
			g.metrics.inflight.Add(int64(-n))
			g.metrics.overloaded.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "gateway at capacity, retry later", http.StatusTooManyRequests)
			return nil, false
		}
	} else {
		g.metrics.inflight.Add(int64(n))
	}
	return func() { g.metrics.inflight.Add(int64(-n)) }, true
}

// routingKey computes the cache key a submission will be stored under —
// the exact key the backend itself derives, because both sides call
// regiongrow.CacheKeyForHash over the same parsed parameters. Paper
// images resolve through the pre-hashed table; raster uploads are
// buffered (bounded) and parsed, and the buffer is returned for
// re-sending to the chosen backend.
func (g *Gateway) routingKey(w http.ResponseWriter, r *http.Request, p server.SegmentParams) (key string, body []byte, err error) {
	if p.ImageName != "" {
		id, err := regiongrow.ParsePaperImageID(p.ImageName)
		if err != nil {
			return "", nil, err
		}
		pk := g.paperKeys[id.ShortName()]
		return regiongrow.CacheKeyForHash(pk.hash, pk.w, pk.h, p.Config, p.Kind), nil, nil
	}
	body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, g.opts.MaxBodyBytes))
	if err != nil {
		return "", nil, err
	}
	im, err := regiongrow.ReadPGM(bytes.NewReader(body))
	if err != nil {
		return "", nil, fmt.Errorf("reading PGM body: %w", err)
	}
	return regiongrow.CacheKey(im, p.Config, p.Kind), body, nil
}

// handleSubmit serves POST /v1/jobs and POST /v1/segment: admission,
// then consistent-hash routing by cache key, then a forward to the
// owning backend — failing over clockwise around the ring when the
// owner cannot be reached at all (its failure also counts toward
// ejection, so a dead backend stops owning keys after a few requests
// even between health sweeps).
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	release, ok := g.admit(w, r, 1)
	if !ok {
		return
	}
	defer release()
	p, err := server.ParseSegmentValues(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, body, err := g.routingKey(w, r, p)
	if err != nil {
		server.BadRequest(w, err)
		return
	}
	g.metrics.submitted.Add(1)

	reached := g.failover(key, func(b *backend) error {
		resp, err := g.forward(r.Context(), r, b.base, body)
		switch {
		case err == nil:
			relay(w, resp, b)
		case r.Context().Err() == nil:
			return err
		}
		return nil // served, or the client went away: not the backend's fault
	})
	if !reached {
		g.metrics.errors.Add(1)
		http.Error(w, "no reachable backend in the fleet for this request", http.StatusServiceUnavailable)
	}
}

// failover walks the ring for key: it calls try with the owner's backend
// and then, clockwise, with each next member's, for as long as try
// returns a transport failure. Each such failure counts toward the
// backend's ejection and as a failover. failover reports false when no
// member was left to try.
func (g *Gateway) failover(key string, try func(b *backend) error) bool {
	tried := make(map[string]bool)
	for {
		owner, ok := g.ring.OwnerSkip(key, func(m string) bool { return tried[m] })
		if !ok {
			return false
		}
		tried[owner] = true
		b := g.reg.get(owner)
		if b == nil { // raced with a leave; the ring catches up on its own
			continue
		}
		err := try(b)
		if err == nil {
			return true
		}
		g.reg.noteFailure(b, err)
		g.metrics.failovers.Add(1)
	}
}

// handleJobProxy serves GET /v1/jobs/{id}, its /events stream, and
// DELETE: the job ID names the replica holding the record (the backend
// embeds its instance ID in every ID it mints), so any gateway can
// route the lookup without shared state.
func (g *Gateway) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	instance, ok := server.ParseJobInstance(id)
	if !ok {
		http.Error(w, fmt.Sprintf("job %q carries no fleet instance; was it minted by this fleet?", id), http.StatusNotFound)
		return
	}
	b := g.reg.byInstance(instance)
	if b == nil {
		http.Error(w, fmt.Sprintf("no backend with instance %q in this fleet (its jobs are unreachable until it rejoins)", instance), http.StatusNotFound)
		return
	}
	g.metrics.proxied.Add(1)
	resp, err := g.forward(r.Context(), r, b.base, nil)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		g.reg.noteFailure(b, err)
		http.Error(w, fmt.Sprintf("backend %s unreachable: %v", b.addr, err), http.StatusBadGateway)
		return
	}
	relay(w, resp, b)
}

// batchItem is one parsed batch entry ready to submit: the SDK request
// plus the ring key it routes by.
type batchItem struct {
	req client.JobRequest
	key string
	err error // parse failure; reported per-item, never fails the batch
}

// handleBatch serves POST /v1/batch by fanning items out across the
// fleet: each item routes by its own cache key, so a batch naturally
// spreads over every backend, and repeated batches of the same items
// hit the same replicas' caches. Submissions go through the typed SDK —
// the gateway builds client.JobRequest values, so a manifest field the
// SDK does not speak cannot exist. Item order is preserved; items fail
// independently, as on a single backend.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, g.opts.MaxBodyBytes)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var items []batchItem
	var err error
	if strings.HasPrefix(ct, "multipart/") {
		items, err = g.batchMultipart(r, ct)
	} else {
		items, err = g.batchManifest(r)
	}
	if err != nil {
		server.BadRequest(w, err)
		return
	}
	release, ok := g.admit(w, r, len(items))
	if !ok {
		return
	}
	defer release()
	g.metrics.batches.Add(1)

	results := make([]client.BatchResult, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		results[i].Index = i
		if it.err != nil {
			results[i].Error = it.err.Error()
			continue
		}
		g.metrics.batchItems.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = g.submitItem(r, i, it)
		}()
	}
	wg.Wait()
	server.WriteJSON(w, http.StatusAccepted, client.BatchResponse{Jobs: results})
}

// submitItem routes one batch item by its key and submits it through
// the owning backend's SDK handle, failing over like handleSubmit.
func (g *Gateway) submitItem(r *http.Request, i int, it batchItem) client.BatchResult {
	res := client.BatchResult{Index: i}
	reached := g.failover(it.key, func(b *backend) error {
		job, err := b.sdk.Submit(r.Context(), it.req)
		switch {
		case err == nil:
			res.ID = job.ID
		case r.Context().Err() == nil && isTransportError(err):
			return err
		default:
			// HTTP-level rejections (bad item, full queue) are the
			// backend's per-item answer; only transport failures justify
			// trying the next replica.
			res.Error = err.Error()
		}
		return nil
	})
	if !reached {
		res.Error = "no reachable backend in the fleet"
	}
	return res
}

// isTransportError distinguishes a failed exchange (no HTTP response:
// dial error, reset) from a response the SDK classified into one of its
// typed errors or a status message.
func isTransportError(err error) bool {
	if errors.Is(err, client.ErrBusy) || errors.Is(err, client.ErrNotFound) {
		return false
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// batchManifest parses a JSON batch body into routable items through
// the server's own manifest decoder and item parser, so gateway and
// backend cannot disagree on a field.
func (g *Gateway) batchManifest(r *http.Request) ([]batchItem, error) {
	m, err := server.DecodeBatchManifest(r.Body)
	if err != nil {
		return nil, err
	}
	items := make([]batchItem, len(m.Items))
	for i, item := range m.Items {
		items[i] = g.parseManifestItem(item)
	}
	return items, nil
}

func (g *Gateway) parseManifestItem(item client.BatchItem) batchItem {
	p, id, err := server.ParseBatchItem(item)
	if err != nil {
		return batchItem{err: err}
	}
	pk := g.paperKeys[id.ShortName()]
	return batchItem{
		req: client.JobRequest{PaperImage: id.ShortName(), Engine: p.Kind, Config: p.Config, Labels: p.Labels},
		key: regiongrow.CacheKeyForHash(pk.hash, pk.w, pk.h, p.Config, p.Kind),
	}
}

// batchMultipart parses a multipart batch: every part is one PGM
// raster, all sharing the query-parameter config — the same contract as
// the backend's own multipart handler.
func (g *Gateway) batchMultipart(r *http.Request, ct string) ([]batchItem, error) {
	p, err := server.ParseSegmentValues(r.URL.Query())
	if err != nil {
		return nil, err
	}
	_, params, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || params["boundary"] == "" {
		return nil, fmt.Errorf("bad multipart content type %q", ct)
	}
	mr := multipart.NewReader(r.Body, params["boundary"])
	var items []batchItem
	for i := 0; ; i++ {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading multipart batch part %d: %w", i, err)
		}
		im, err := regiongrow.ReadPGM(part)
		part.Close()
		if err != nil {
			items = append(items, batchItem{err: fmt.Errorf("part %d: reading PGM: %w", i, err)})
			continue
		}
		items = append(items, batchItem{
			req: client.JobRequest{Image: im, Engine: p.Kind, Config: p.Config, Labels: p.Labels},
			key: regiongrow.CacheKey(im, p.Config, p.Kind),
		})
	}
	if len(items) == 0 {
		return nil, errors.New("multipart batch has no parts")
	}
	return items, nil
}

// handleHealthz reports gateway liveness and fleet readiness: 200 while
// at least one backend is admitted to the routing ring, 503 otherwise
// (the gateway is up but can serve nothing).
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ms := g.reg.members()
	healthy := 0
	for _, m := range ms {
		if m.InRing {
			healthy++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	state := "ok"
	if healthy == 0 {
		status = http.StatusServiceUnavailable
		state = "no reachable backends"
	}
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"status\":%q,\"backends\":%d,\"in_ring\":%d}\n", state, len(ms), healthy)
}

// handleFleetGet serves GET /v1/fleet: the membership snapshot in
// address order, with per-backend health as of the latest probe.
func (g *Gateway) handleFleetGet(w http.ResponseWriter, r *http.Request) {
	ms := g.reg.members()
	st := client.FleetStatus{Backends: len(ms), Members: ms}
	for _, m := range ms {
		if m.Healthy {
			st.Healthy++
		}
	}
	server.WriteJSON(w, http.StatusOK, st)
}

// handleFleetJoin serves POST /v1/fleet/join?addr=H:P. The new backend
// is probed synchronously: reachable, it starts owning keys before the
// response is written; unreachable, it joins as unhealthy and the
// health loop admits it when it comes up — so orchestration may
// register a replica before starting its process.
func (g *Gateway) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		http.Error(w, "missing addr parameter", http.StatusBadRequest)
		return
	}
	b, err := g.reg.add(addr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if b != nil {
		g.reg.probe(r.Context(), b)
	}
	server.WriteJSON(w, http.StatusOK, client.FleetUpdate{Changed: b != nil, Members: g.reg.members()})
}

// handleFleetLeave serves POST /v1/fleet/leave?addr=H:P. The departed
// backend's keys re-route to the survivors (bounded movement); its job
// records become unreachable through the gateway until it rejoins.
// Removing the last backend is refused.
func (g *Gateway) handleFleetLeave(w http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		http.Error(w, "missing addr parameter", http.StatusBadRequest)
		return
	}
	changed, err := g.reg.remove(addr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	server.WriteJSON(w, http.StatusOK, client.FleetUpdate{Changed: changed, Members: g.reg.members()})
}
