package gateway

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"regiongrow"
)

// Options configures a Gateway. The zero value of every field selects a
// sensible default; Backends must name at least one replica.
type Options struct {
	// Backends seeds the fleet: regiongrowd addresses as host:port or
	// http://host:port. Membership is dynamic afterwards via
	// POST /v1/fleet/join and /v1/fleet/leave.
	Backends []string
	// VNodes is the consistent-hash virtual-node count per backend
	// (0 = DefaultVNodes). Every gateway in front of one fleet must use
	// the same value, or they will disagree on key ownership.
	VNodes int
	// HealthInterval is the period of the background health sweep
	// (0 = 2s).
	HealthInterval time.Duration
	// ProbeTimeout bounds each health probe and each leg of a stats
	// aggregation (0 = 2s).
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive-failure count at which an unhealthy
	// backend is removed from the routing ring (0 = 2). It is readmitted
	// on its first successful probe.
	EjectAfter int
	// MaxBodyBytes caps PGM uploads, mirroring regiongrowd's -maxbody
	// (0 = 16 MiB).
	MaxBodyBytes int64
	// RatePerSec enables per-client token-bucket rate limiting on the
	// submission endpoints: each client IP accrues this many submissions
	// per second, up to Burst. 0 disables limiting.
	RatePerSec float64
	// Burst is the token-bucket depth (0 = 2*RatePerSec, at least 1).
	Burst int
	// MaxInFlight caps submissions the gateway has forwarded but not yet
	// answered, across all clients; excess is answered 429 before any
	// backend sees it. 0 = unlimited.
	MaxInFlight int
	// Instance is the gateway's own stable ID, reported on /v1/stats
	// ("" = a random ID minted at construction).
	Instance string
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 2
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	if o.Instance == "" {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(err)
		}
		o.Instance = "gw-" + hex.EncodeToString(b[:])
	}
	return o
}

// gwMetrics are the gateway's own counters, distinct from the backend
// stats it aggregates.
type gwMetrics struct {
	start       time.Time
	submitted   atomic.Int64 // jobs/segment submissions routed by key
	proxied     atomic.Int64 // job-ID lookups/streams/cancels forwarded
	batches     atomic.Int64 // batch requests fanned out
	batchItems  atomic.Int64 // individual batch items submitted
	rateLimited atomic.Int64 // 429s from the token bucket
	overloaded  atomic.Int64 // 429s from the in-flight cap
	failovers   atomic.Int64 // submissions re-routed off a dead owner
	errors      atomic.Int64 // forwards that failed on every candidate
	inflight    atomic.Int64
}

// Gateway is the stateless edge tier: an http.Handler that fronts a
// fleet of regiongrowd replicas, routing submissions by cache key over
// a consistent-hash ring and proxying job-ID traffic to the replica
// that owns the record. Construct with New; Close stops the health
// loop. Multiple gateways over the same fleet need no coordination.
type Gateway struct {
	opts    Options
	ring    *Ring
	reg     *registry
	limiter *rateLimiter
	hc      *http.Client
	metrics gwMetrics
	mux     *http.ServeMux
	// paperKeys caches the six evaluation images' content hashes and
	// dimensions, so routing a ?image=imageN submission does not
	// regenerate rasters per request.
	paperKeys map[string]paperKey
}

type paperKey struct {
	hash string
	w, h int
}

// New builds a Gateway over opts.Backends. Each seed backend is probed
// once, concurrently, before New returns: reachable replicas enter the
// routing ring immediately, unreachable ones join the fleet as
// unhealthy and are admitted by the health loop when they come up — so
// a gateway may be started before (some of) its backends.
func New(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	if len(opts.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	g := &Gateway{
		opts:      opts,
		ring:      NewRing(opts.VNodes),
		hc:        &http.Client{},
		limiter:   newRateLimiter(opts.RatePerSec, opts.Burst),
		mux:       http.NewServeMux(),
		paperKeys: make(map[string]paperKey),
	}
	g.metrics.start = time.Now()
	for _, id := range regiongrow.AllPaperImageIDs() {
		im := regiongrow.GeneratePaperImage(id)
		g.paperKeys[id.ShortName()] = paperKey{hash: regiongrow.HashImage(im), w: im.W, h: im.H}
	}
	g.reg = newRegistry(g.ring, g.hc, opts.ProbeTimeout, opts.EjectAfter)
	for _, addr := range opts.Backends {
		if _, err := g.reg.add(addr); err != nil {
			return nil, err
		}
	}
	g.reg.probeAll(context.Background())

	g.mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	g.mux.HandleFunc("POST /v1/segment", g.handleSubmit)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleJobProxy)
	g.mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleJobProxy)
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJobProxy)
	g.mux.HandleFunc("POST /v1/batch", g.handleBatch)
	g.mux.HandleFunc("GET /v1/stats", g.handleStats)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /v1/fleet", g.handleFleetGet)
	g.mux.HandleFunc("POST /v1/fleet/join", g.handleFleetJoin)
	g.mux.HandleFunc("POST /v1/fleet/leave", g.handleFleetLeave)

	g.reg.loopWG.Add(1)
	go g.reg.healthLoop(opts.HealthInterval)
	return g, nil
}

// Instance returns the gateway's stable instance ID.
func (g *Gateway) Instance() string { return g.opts.Instance }

// Ring exposes the routing ring (read-only use intended: tests assert
// ownership without going over HTTP).
func (g *Gateway) Ring() *Ring { return g.ring }

// Close stops the health loop. In-flight proxied requests are not
// interrupted; the caller drains its http.Server first, as
// cmd/regiongrow-gateway does.
func (g *Gateway) Close() {
	close(g.reg.loopStop)
	g.reg.loopWG.Wait()
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}
