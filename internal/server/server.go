package server

import (
	"context"
	"net/http"
	"runtime"
	"time"

	"regiongrow"
)

// SegmentFunc segments one image under a context, reporting stage
// progress to obs. Options.Segment substitutes one for the Server's
// pooled per-engine Segmenters; tests use stubs to control timing.
type SegmentFunc func(ctx context.Context, im *regiongrow.Image, cfg regiongrow.Config, kind regiongrow.EngineKind, obs regiongrow.Observer) (*regiongrow.Segmentation, error)

// Options configure a Server. The zero value is serviceable: GOMAXPROCS
// workers, a 64-deep queue, a 256-entry cache, 16 MiB uploads, real
// engines, no per-request deadline, and compute that is cancelled when
// its client disconnects.
type Options struct {
	// Workers is the worker-pool size; <=0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs; <=0
	// selects 64. When the queue is full, /v1/segment returns 429.
	QueueDepth int
	// CacheEntries bounds the LRU result cache; 0 selects 256, negative
	// disables caching. An entry holds one segmentation (its label
	// raster, 4 bytes a pixel) and its region statistics.
	CacheEntries int
	// MaxBodyBytes bounds PGM uploads; <=0 selects 16 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds each /v1/segment compute; 0 means no limit.
	// A request exceeding it is answered 504 Gateway Timeout naming the
	// stage the job reached, and counted under canceled_deadline.
	RequestTimeout time.Duration
	// WarmAbandoned keeps computing jobs whose client disconnected or
	// timed out, so their results warm the cache for the retry that
	// usually follows. Off by default: abandoned compute is cancelled
	// within one split/merge iteration and its worker freed. It applies
	// to the synchronous path only — asynchronous jobs have no waiter to
	// lose and run until they finish or are cancelled via DELETE.
	WarmAbandoned bool
	// JobCapacity bounds the job-record store; <=0 selects 1024. At
	// capacity, the oldest finished record is evicted to admit a new
	// submission; when every record is still queued or running, new
	// submissions are rejected with 429.
	JobCapacity int
	// JobTTL bounds how long a finished job record (and its result)
	// stays retrievable; <=0 selects 15 minutes. Expired records are
	// swept lazily on submissions and lookups.
	JobTTL time.Duration
	// ClusterWorkers lists regiongrow-worker addresses; when non-empty,
	// the Distributed engine ("dist") is served through them. When empty,
	// dist requests are rejected with a hint to start the server with
	// -cluster.
	ClusterWorkers []string
	// Instance is this server's stable identity: it prefixes every job ID
	// (so a fleet gateway can route GET /v1/jobs/{id} to the backend that
	// owns the record) and is reported on /v1/stats, which is what makes
	// fleet-aggregated stats attributable per backend. Empty selects a
	// random 8-hex-character ID minted at construction.
	Instance string
	// Segment replaces the pooled per-engine Segmenters; nil selects
	// them. Tests use it to control job timing.
	Segment SegmentFunc
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	if o.JobCapacity <= 0 {
		o.JobCapacity = 1024
	}
	if o.JobTTL <= 0 {
		o.JobTTL = 15 * time.Minute
	}
	if o.Instance == "" {
		o.Instance = newInstanceID()
	}
	return o
}

// Server is the segmentation service. Construct with New, mount via
// Handler (or use it directly as an http.Handler), and Close it after the
// enclosing http.Server has shut down to drain in-flight jobs.
type Server struct {
	opts    Options
	pool    *Pool
	cache   *resultCache
	metrics *metrics
	jobs    *jobStore
	mux     *http.ServeMux
	// compute runs every job: Options.Segment, or the pooled sessions.
	compute SegmentFunc
	// segmenters are the long-lived per-engine sessions every job runs
	// through: their buffer pools are what makes the steady-state
	// cache-miss path allocate near zero for the split stage.
	segmenters map[regiongrow.EngineKind]*regiongrow.Segmenter
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:       opts,
		cache:      newResultCache(opts.CacheEntries),
		metrics:    newMetrics(opts.Instance),
		jobs:       newJobStore(opts.JobCapacity, opts.JobTTL),
		mux:        http.NewServeMux(),
		segmenters: make(map[regiongrow.EngineKind]*regiongrow.Segmenter),
	}
	for _, k := range regiongrow.AllEngineKinds() {
		var kopts []regiongrow.Option
		if k == regiongrow.Distributed {
			if len(opts.ClusterWorkers) == 0 {
				continue // served only when cluster workers are configured
			}
			kopts = append(kopts, regiongrow.WithClusterWorkers(opts.ClusterWorkers))
		}
		sg, err := regiongrow.New(k, kopts...)
		if err != nil {
			panic(err) // unreachable: every listed kind is constructible
		}
		s.segmenters[k] = sg
	}
	s.compute = opts.Segment
	if s.compute == nil {
		s.compute = s.segment
	}
	s.pool = NewPool(opts.Workers, opts.QueueDepth)
	s.mux.HandleFunc("POST /v1/segment", s.handleSegment)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterGet)
	s.mux.HandleFunc("POST /v1/cluster/join", s.handleClusterJoin)
	s.mux.HandleFunc("POST /v1/cluster/leave", s.handleClusterLeave)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// segment is the default SegmentFunc: route the job through the pooled
// session for its engine kind.
func (s *Server) segment(ctx context.Context, im *regiongrow.Image, cfg regiongrow.Config, kind regiongrow.EngineKind, obs regiongrow.Observer) (*regiongrow.Segmentation, error) {
	// Every submission path checks kind against s.segmenters first.
	return s.segmenters[kind].SegmentObserved(ctx, im, cfg, obs)
}

// Handler returns the service's routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the worker pool after draining accepted jobs; each job
// settles its own record on its worker, so every record is terminal when
// Close returns. Call it after http.Server.Shutdown has returned so no
// handler is still submitting.
func (s *Server) Close() { s.pool.Close() }

// Stats returns a point-in-time snapshot of the service counters — the
// same document /v1/stats serves.
func (s *Server) Stats() Stats { return s.metrics.snapshot(s.pool, s.cache, s.jobs) }

// Instance returns this server's stable instance ID (Options.Instance, or
// the random ID minted when none was configured).
func (s *Server) Instance() string { return s.opts.Instance }
