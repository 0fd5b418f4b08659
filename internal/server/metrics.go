package server

import (
	"sync/atomic"
	"time"

	"regiongrow"
)

// latencyBounds are the upper edges of the latency histogram buckets; a
// final implicit bucket catches everything slower.
var latencyBounds = [...]time.Duration{
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond,
}

// histogram is a fixed-bucket latency histogram updated lock-free.
type histogram struct {
	count    atomic.Int64
	sumNanos atomic.Int64
	buckets  [len(latencyBounds) + 1]atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	for i, b := range latencyBounds {
		if d <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(latencyBounds)].Add(1)
}

// BucketStat is one histogram bucket in a stats snapshot.
type BucketStat struct {
	// Le is the bucket's inclusive upper edge, e.g. "25ms"; the last
	// bucket is "+Inf".
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramStats is a point-in-time histogram snapshot.
type HistogramStats struct {
	Count   int64        `json:"count"`
	TotalMs float64      `json:"total_ms"`
	MeanMs  float64      `json:"mean_ms"`
	Buckets []BucketStat `json:"buckets"`
}

func (h *histogram) snapshot() HistogramStats {
	n := h.count.Load()
	total := time.Duration(h.sumNanos.Load())
	s := HistogramStats{Count: n, TotalMs: float64(total) / float64(time.Millisecond)}
	if n > 0 {
		s.MeanMs = s.TotalMs / float64(n)
	}
	for i, b := range latencyBounds {
		s.Buckets = append(s.Buckets, BucketStat{Le: b.String(), Count: h.buckets[i].Load()})
	}
	s.Buckets = append(s.Buckets, BucketStat{Le: "+Inf", Count: h.buckets[len(latencyBounds)].Load()})
	return s
}

// metrics aggregates the service counters exposed on /v1/stats. Per-engine
// histograms are pre-allocated for every engine kind at construction, so
// the map is read-only afterwards and needs no lock; a kind the server
// does not serve keeps an empty histogram, which snapshots omit.
type metrics struct {
	instance string
	// start anchors both stats clocks: its wall reading is served as
	// started_at, and uptime_seconds is time.Since(start) — which Go
	// computes from the monotonic reading captured at construction, so
	// uptime never jumps with wall-clock adjustments.
	start    time.Time
	requests atomic.Int64 // POST /v1/segment attempts
	served   atomic.Int64 // 200 responses
	rejected atomic.Int64 // 429 responses (queue full)
	failed   atomic.Int64 // 4xx/5xx other than 429
	// Cancellation counters: disconnect (client went away) vs deadline
	// (request timeout fired, answered 504). canceled() sums them.
	canceledDisconnect atomic.Int64
	canceledDeadline   atomic.Int64
	progress           progressMetrics
	perEngine          map[string]*histogram
}

func newMetrics(instance string) *metrics {
	m := &metrics{instance: instance, start: time.Now(), perEngine: make(map[string]*histogram)}
	for _, k := range regiongrow.AllEngineKinds() {
		m.perEngine[k.String()] = &histogram{}
	}
	return m
}

// observe records one completed segmentation (a cache miss that ran on the
// pool) against the engine's latency histogram.
func (m *metrics) observe(kind regiongrow.EngineKind, d time.Duration) {
	if h, ok := m.perEngine[kind.String()]; ok {
		h.observe(d)
	}
}

// Stats is the JSON document served on /v1/stats. Instance and StartedAt
// make fleet-aggregated snapshots attributable: a gateway polling many
// backends can tell which counters belong to whom, and a restart is
// visible as a new StartedAt (and reset uptime) under the same instance.
type Stats struct {
	Instance      string                    `json:"instance"`
	StartedAt     time.Time                 `json:"started_at"`
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Requests      RequestStats              `json:"requests"`
	Jobs          JobStats                  `json:"jobs"`
	Cache         CacheStats                `json:"cache"`
	Queue         QueueStats                `json:"queue"`
	Progress      ProgressStats             `json:"progress"`
	Engines       map[string]HistogramStats `json:"engines"`
}

// RequestStats counts POST /v1/segment outcomes. Canceled is the sum of
// the two cancellation causes: CanceledDisconnect (the client went away —
// nobody hears the answer) and CanceledDeadline (the per-request deadline
// fired and the client was told 504, naming the stage the job reached).
type RequestStats struct {
	Total              int64 `json:"total"`
	Served             int64 `json:"served"`
	Rejected           int64 `json:"rejected"`
	Failed             int64 `json:"failed"`
	Canceled           int64 `json:"canceled"`
	CanceledDisconnect int64 `json:"canceled_disconnect"`
	CanceledDeadline   int64 `json:"canceled_deadline"`
}

// CacheStats reports result-cache effectiveness.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
}

// QueueStats reports worker-pool pressure at snapshot time.
type QueueStats struct {
	Depth    int   `json:"depth"`
	Capacity int   `json:"capacity"`
	InFlight int64 `json:"inflight"`
	Workers  int   `json:"workers"`
}

func (m *metrics) snapshot(pool *Pool, cache *resultCache, jobs *jobStore) Stats {
	disc, dead := m.canceledDisconnect.Load(), m.canceledDeadline.Load()
	s := Stats{
		Instance:      m.instance,
		StartedAt:     m.start,
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests: RequestStats{
			Total:              m.requests.Load(),
			Served:             m.served.Load(),
			Rejected:           m.rejected.Load(),
			Failed:             m.failed.Load(),
			Canceled:           disc + dead,
			CanceledDisconnect: disc,
			CanceledDeadline:   dead,
		},
		Jobs:     jobs.snapshot(),
		Progress: m.progress.snapshot(),
		Cache: CacheStats{
			Hits:     cache.Hits(),
			Misses:   cache.Misses(),
			Entries:  cache.Len(),
			Capacity: max(cache.cap, 0),
		},
		Queue: QueueStats{
			Depth:    pool.QueueDepth(),
			Capacity: pool.QueueCapacity(),
			InFlight: pool.InFlight(),
			Workers:  pool.Workers(),
		},
		Engines: make(map[string]HistogramStats, len(m.perEngine)),
	}
	for name, h := range m.perEngine {
		if h.count.Load() > 0 {
			s.Engines[name] = h.snapshot()
		}
	}
	return s
}
