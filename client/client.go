// Package client is the typed Go SDK for the regiongrowd segmentation
// service. It speaks the asynchronous job API — Submit enqueues a run,
// Stream follows its stage events live over SSE, Wait blocks until the
// terminal record, Cancel aborts it, and Batch fans a manifest out into
// per-item jobs — plus the synchronous compatibility path (Recoloured).
// The wire types in this package are the ones the server itself
// serializes, so SDK and service cannot drift.
//
// The package depends only on the standard library and the regiongrow
// facade. Every call takes a context; cancelling it abandons the HTTP
// exchange (and, server-side, a disconnected synchronous request — async
// jobs keep running until Cancel).
//
//	c, _ := client.New("http://localhost:8080")
//	job, _ := c.Submit(ctx, client.JobRequest{
//		PaperImage: "image3",
//		Engine:     regiongrow.NativeParallel,
//		Config:     regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1},
//	})
//	job, _ = c.Wait(ctx, job.ID)
//	fmt.Println(job.Result.FinalRegions)
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"regiongrow"
)

// Errors the SDK classifies out of HTTP statuses, for errors.Is.
var (
	// ErrNotFound reports an unknown (or already evicted) job ID.
	ErrNotFound = errors.New("client: job not found")
	// ErrBusy reports 429: the server's bounded job queue (or store) has
	// no free slot right now; retry after a moment.
	ErrBusy = errors.New("client: server busy")
	// ErrNoCluster reports a server running without a distributed
	// cluster: its /v1/cluster endpoints do not exist until regiongrowd is
	// started with -cluster.
	ErrNoCluster = errors.New("client: no cluster on this server")
	// ErrNoFleet reports a server that is not a fleet gateway: the
	// /v1/fleet endpoints exist only on regiongrow-gateway, not on a
	// plain regiongrowd backend.
	ErrNoFleet = errors.New("client: not a fleet gateway")
)

// Client talks to one regiongrowd instance (or one regiongrow-gateway,
// which serves the same job API). It is safe for concurrent use;
// construct with New.
type Client struct {
	base string
	hc   *http.Client
	// timeout bounds each non-streaming HTTP exchange; see
	// WithRequestTimeout.
	timeout time.Duration
	// busyRetries and maxBackoff drive the 429 retry loop; see
	// WithBusyRetry.
	busyRetries int
	maxBackoff  time.Duration
}

// Option configures a Client at construction time.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client used for every exchange
// (timeouts, transports, tracing). The default is a client with no
// overall timeout, since Stream and Wait hold connections open for the
// length of a job; bound calls with their contexts instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRequestTimeout bounds every non-streaming exchange — submission,
// poll, cancel, batch, cluster and fleet calls — to d per attempt,
// layered under whatever deadline the call's context already carries.
// Stream (and the SSE leg of Wait) is exempt: it intentionally holds its
// connection open for the life of the job. A non-positive d leaves
// exchanges unbounded, the prior behavior.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithBusyRetry retries an exchange answered 429 (ErrBusy — the server's
// bounded queue or job store is momentarily full) up to retries extra
// attempts, sleeping an exponentially doubling backoff that starts at
// 50ms and is capped at maxBackoff (non-positive selects 2s). The
// caller's context cancels the sleep. Only requests whose body can be
// replayed are retried; every request this package builds qualifies.
// The default remains zero retries: ErrBusy surfaces immediately.
func WithBusyRetry(retries int, maxBackoff time.Duration) Option {
	return func(c *Client) {
		c.busyRetries = max(retries, 0)
		if maxBackoff <= 0 {
			maxBackoff = 2 * time.Second
		}
		c.maxBackoff = maxBackoff
	}
}

// New builds a Client for the service at baseURL (scheme and host,
// e.g. "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: bad base URL %q (want http:// or https://)", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q has no host", baseURL)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: &http.Client{}}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// JobRequest describes one segmentation to submit. Exactly one of
// PaperImage (a server-side evaluation image by name) or Image (a raster
// uploaded as binary PGM) must be set. Config is sent verbatim — every
// field explicit on the wire — so the zero Config means threshold 0,
// smallest-id ties, seed 0, the N/8 square cap; it does not adopt the
// server's query-parameter defaults.
type JobRequest struct {
	PaperImage string
	Image      *regiongrow.Image
	Engine     regiongrow.EngineKind
	Config     regiongrow.Config
	// Labels asks the server to include the full label raster in the
	// job's Result.
	Labels bool
}

// configValues encodes the engine, config, and labels flag as query
// parameters — the part of a request shared by every endpoint.
func (r JobRequest) configValues() url.Values {
	v := url.Values{}
	v.Set("engine", r.Engine.String())
	v.Set("threshold", strconv.Itoa(r.Config.Threshold))
	v.Set("tie", r.Config.Tie.String())
	v.Set("seed", strconv.FormatUint(r.Config.Seed, 10))
	v.Set("maxsquare", strconv.Itoa(r.Config.MaxSquare))
	if r.Labels {
		v.Set("labels", "1")
	}
	return v
}

func (r JobRequest) values() (url.Values, error) {
	if (r.PaperImage == "") == (r.Image == nil) {
		return nil, errors.New("client: set exactly one of JobRequest.PaperImage and JobRequest.Image")
	}
	v := r.configValues()
	if r.PaperImage != "" {
		v.Set("image", r.PaperImage)
	}
	return v, nil
}

func (r JobRequest) body() (io.Reader, error) {
	if r.Image == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := regiongrow.WritePGM(&buf, r.Image); err != nil {
		return nil, fmt.Errorf("client: encoding upload: %w", err)
	}
	return &buf, nil
}

// do issues one request — retrying 429 responses per WithBusyRetry and
// bounding each non-streaming attempt per WithRequestTimeout — and
// returns the response after classifying non-2xx statuses into errors
// (wrapping ErrNotFound and ErrBusy where they apply). The caller owns
// the body on success.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	// SSE exchanges are recognizable by the Accept header Stream sets;
	// they stay open for the life of a job, so the per-request timeout
	// must not apply to them.
	streaming := req.Header.Get("Accept") == "text/event-stream"
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := c.attempt(req, streaming)
		if err == nil {
			return resp, nil
		}
		// Only ErrBusy is transient by contract, and a request whose body
		// cannot be rebuilt cannot be replayed. (Bodyless requests and the
		// bytes.Buffer/bytes.Reader bodies this package builds always
		// carry GetBody.)
		if !errors.Is(err, ErrBusy) || attempt >= c.busyRetries ||
			(req.Body != nil && req.GetBody == nil) {
			return nil, err
		}
		d := min(backoff, c.maxBackoff)
		backoff *= 2
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(d):
		}
		if req.GetBody != nil {
			body, gerr := req.GetBody()
			if gerr != nil {
				return nil, err
			}
			req.Body = body
		}
	}
}

// cancelBody ties an attempt's timeout cancel to its response body, so
// the deadline keeps governing the read and the context is released
// exactly when the caller closes the body.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// attempt runs one exchange, applying the per-request timeout to
// non-streaming requests.
func (c *Client) attempt(req *http.Request, streaming bool) (*http.Response, error) {
	hreq := req
	cancel := context.CancelFunc(nil)
	if c.timeout > 0 && !streaming {
		var ctx context.Context
		ctx, cancel = context.WithTimeout(req.Context(), c.timeout)
		hreq = req.Clone(ctx)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if cancel != nil {
		resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	detail := strings.TrimSpace(string(msg))
	switch resp.StatusCode {
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", ErrNotFound, detail)
	case http.StatusTooManyRequests:
		return nil, fmt.Errorf("%w: %s", ErrBusy, detail)
	default:
		return nil, fmt.Errorf("client: %s: %s", resp.Status, detail)
	}
}

func (c *Client) decodeJob(resp *http.Response) (*Job, error) {
	defer resp.Body.Close()
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return nil, fmt.Errorf("client: decoding job record: %w", err)
	}
	if j.APIVersion != APIVersion {
		return nil, fmt.Errorf("client: server speaks job API %q, this SDK %q", j.APIVersion, APIVersion)
	}
	return &j, nil
}

// Submit enqueues one segmentation job and returns its freshly minted
// record — state queued (or already done, when the result cache hits).
func (c *Client) Submit(ctx context.Context, req JobRequest) (*Job, error) {
	v, err := req.values()
	if err != nil {
		return nil, err
	}
	body, err := req.body()
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs?"+v.Encode(), body)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	return c.decodeJob(resp)
}

// Get fetches a job's current record. Unknown or TTL-evicted IDs return
// an error wrapping ErrNotFound.
func (c *Client) Get(ctx context.Context, id string) (*Job, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	return c.decodeJob(resp)
}

// Cancel asks the server to abort a job: its compute is cancelled within
// one split/merge iteration (a queued job dies before computing at all).
// The returned record is a snapshot that may still read running — follow
// with Wait or Get for the terminal state. Cancelling a terminal job is
// a no-op.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	return c.decodeJob(resp)
}

// Stream follows a job's stage events live over SSE, invoking fn (when
// non-nil) for each one — including a replay of events that fired before
// the call — and returns the terminal job record carried by the final
// done/failed/canceled event. Events arrive in engine emission order;
// observers written for local Segmenter sessions plug in directly:
//
//	job, err := c.Stream(ctx, id, tracker.Observe)
func (c *Client) Stream(ctx context.Context, id string, fn func(regiongrow.StageEvent)) (*Job, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	br := bufio.NewReader(resp.Body)
	var name string
	var data bytes.Buffer
	dispatch := func() (*Job, error) {
		defer func() { name = ""; data.Reset() }()
		switch name {
		case "stage":
			var ev Event
			if err := json.Unmarshal(data.Bytes(), &ev); err != nil {
				return nil, fmt.Errorf("client: decoding stage event: %w", err)
			}
			if fn != nil {
				fn(ev.StageEvent())
			}
			return nil, nil
		case string(StateDone), string(StateFailed), string(StateCanceled):
			var j Job
			if err := json.Unmarshal(data.Bytes(), &j); err != nil {
				return nil, fmt.Errorf("client: decoding terminal %s event: %w", name, err)
			}
			// Enforce the same schema-version gate as decodeJob, so Wait
			// and Get agree on compatibility.
			if j.APIVersion != APIVersion {
				return nil, fmt.Errorf("client: server speaks job API %q, this SDK %q", j.APIVersion, APIVersion)
			}
			return &j, nil
		default:
			// Unknown event types are skipped, per the SSE contract.
			return nil, nil
		}
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("client: event stream for job %s ended without a terminal event", id)
			}
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			j, err := dispatch()
			if err != nil || j != nil {
				return j, err
			}
		case strings.HasPrefix(line, "event:"):
			name = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n') // multi-line data concatenates per SSE
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// id: and comment lines carry nothing we need.
		}
	}
}

// Wait blocks until the job reaches a terminal state and returns its
// final record. It prefers the SSE stream (no polling); if the stream
// breaks it falls back to polling Get until ctx ends.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	j, err := c.Stream(ctx, id, nil)
	if err == nil {
		return j, nil
	}
	if ctx.Err() != nil || errors.Is(err, ErrNotFound) {
		return nil, err
	}
	for {
		j, err := c.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Batch submits many paper-image jobs in one POST /v1/batch round trip
// and returns one BatchResult per request, in order — a job ID to Wait
// on, or the per-item error that kept it from being enqueued. Every
// request must name a PaperImage; raster uploads batch via BatchImages.
func (c *Client) Batch(ctx context.Context, reqs []JobRequest) ([]BatchResult, error) {
	if len(reqs) == 0 {
		return nil, errors.New("client: empty batch")
	}
	m := BatchManifest{Items: make([]BatchItem, len(reqs))}
	for i, r := range reqs {
		if r.PaperImage == "" {
			return nil, fmt.Errorf("client: batch item %d has no PaperImage (upload rasters with BatchImages)", i)
		}
		threshold, seed := r.Config.Threshold, r.Config.Seed
		m.Items[i] = BatchItem{
			Image:     r.PaperImage,
			Engine:    r.Engine.String(),
			Threshold: &threshold,
			Tie:       r.Config.Tie.String(),
			Seed:      &seed,
			MaxSquare: r.Config.MaxSquare,
			Labels:    r.Labels,
		}
	}
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	return c.decodeBatch(hreq)
}

// BatchImages submits a multipart set of PGM rasters as one batch, all
// sharing the engine, config, and labels flag of shared (whose PaperImage
// and Image fields are ignored). Results come back in part order.
func (c *Client) BatchImages(ctx context.Context, imgs []*regiongrow.Image, shared JobRequest) ([]BatchResult, error) {
	if len(imgs) == 0 {
		return nil, errors.New("client: empty batch")
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, im := range imgs {
		part, err := mw.CreateFormFile(fmt.Sprintf("pgm%d", i), fmt.Sprintf("pgm%d.pgm", i))
		if err != nil {
			return nil, err
		}
		if err := regiongrow.WritePGM(part, im); err != nil {
			return nil, fmt.Errorf("client: encoding batch part %d: %w", i, err)
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	// Config travels in the query, rasters in the parts.
	v := shared.configValues()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch?"+v.Encode(), &buf)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", mw.FormDataContentType())
	return c.decodeBatch(hreq)
}

func (c *Client) decodeBatch(hreq *http.Request) ([]BatchResult, error) {
	resp, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, fmt.Errorf("client: decoding batch response: %w", err)
	}
	return br.Jobs, nil
}

// Cluster fetches the distributed cluster's membership, each member
// freshly health-probed by the server. Servers running without a cluster
// answer with an error wrapping ErrNoCluster.
func (c *Client) Cluster(ctx context.Context) (*ClusterStatus, error) {
	return membership[ClusterStatus](ctx, c, clusterEndpoints, "", "")
}

// ClusterJoin adds a worker address to the server's distributed cluster,
// effective at its next distributed job — how a scaled-up worker enters a
// running regiongrowd without a restart of either side.
func (c *Client) ClusterJoin(ctx context.Context, addr string) (*ClusterUpdate, error) {
	return membership[ClusterUpdate](ctx, c, clusterEndpoints, "join", addr)
}

// ClusterLeave removes a worker address from the server's distributed
// cluster, effective at its next distributed job; jobs already running
// against the worker are unaffected. Removing the last member is refused
// by the server.
func (c *Client) ClusterLeave(ctx context.Context, addr string) (*ClusterUpdate, error) {
	return membership[ClusterUpdate](ctx, c, clusterEndpoints, "leave", addr)
}

// Fleet fetches a gateway's backend membership: every regiongrowd
// instance behind it, with health, instance ID, and ring presence. A
// plain regiongrowd answers 404, surfaced as an error wrapping
// ErrNoFleet.
func (c *Client) Fleet(ctx context.Context) (*FleetStatus, error) {
	return membership[FleetStatus](ctx, c, fleetEndpoints, "", "")
}

// FleetJoin adds a backend address to a gateway's fleet. The backend is
// probed immediately; one that is not up yet still joins as unhealthy
// and is admitted to the routing ring by the health loop once it answers
// probes — so orchestration can register a backend before starting it.
func (c *Client) FleetJoin(ctx context.Context, addr string) (*FleetUpdate, error) {
	return membership[FleetUpdate](ctx, c, fleetEndpoints, "join", addr)
}

// FleetLeave removes a backend address from a gateway's fleet. The keys
// it owned re-route to the surviving backends (bounded movement, by
// consistent hashing); job records it holds become unreachable through
// the gateway. Removing the last backend is refused.
func (c *Client) FleetLeave(ctx context.Context, addr string) (*FleetUpdate, error) {
	return membership[FleetUpdate](ctx, c, fleetEndpoints, "leave", addr)
}

// membershipEndpoints names one family of membership endpoints: the
// status at /v1/<name> and the mutations at /v1/<name>/<verb>. A server
// without the feature answers them 404, surfaced as missing with hint.
type membershipEndpoints struct {
	name    string
	missing error
	hint    string
}

var (
	clusterEndpoints = membershipEndpoints{"cluster", ErrNoCluster, "start regiongrowd with -cluster host:port,..."}
	fleetEndpoints   = membershipEndpoints{"fleet", ErrNoFleet, "fleet endpoints are served by regiongrow-gateway"}
)

// membership runs one exchange with e's endpoints: a GET of the status
// when verb is empty, otherwise a POST of verb for addr.
func membership[T any](ctx context.Context, c *Client, e membershipEndpoints, verb, addr string) (*T, error) {
	method, u := http.MethodGet, c.base+"/v1/"+e.name
	if verb != "" {
		method, u = http.MethodPost, u+"/"+verb+"?"+url.Values{"addr": {addr}}.Encode()
	}
	hreq, err := http.NewRequestWithContext(ctx, method, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(hreq)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, fmt.Errorf("%w (%s)", e.missing, e.hint)
		}
		return nil, err
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("client: decoding %s response: %w", e.name, err)
	}
	return &v, nil
}

// Recoloured segments via the synchronous /v1/segment compatibility path
// and returns the server-rendered recoloured raster (every region painted
// with the midpoint of its intensity interval) — what a CLI writes for
// its -o flag. The synchronous path shares the job machinery and result
// cache, so a Recoloured call after Wait on the same request is a cache
// hit.
func (c *Client) Recoloured(ctx context.Context, req JobRequest) (*regiongrow.Image, error) {
	v, err := req.values()
	if err != nil {
		return nil, err
	}
	v.Set("format", "pgm")
	body, err := req.body()
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/segment?"+v.Encode(), body)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	im, err := regiongrow.ReadPGM(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: decoding recoloured PGM: %w", err)
	}
	return im, nil
}
