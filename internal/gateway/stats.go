package gateway

import (
	"context"
	"net/http"
	"sync"
	"time"

	"regiongrow/internal/server"
)

// Stats is the JSON document the gateway serves on GET /v1/stats: its
// own edge counters plus a live fleet-wide aggregation — every backend
// probed concurrently at snapshot time, each contributing its full
// regiongrowd stats document (typed as server.Stats, so the decode
// breaks loudly if the backend schema ever moves).
type Stats struct {
	Instance      string    `json:"instance"`
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`

	Gateway  GatewayCounters `json:"gateway"`
	Fleet    FleetSummary    `json:"fleet"`
	Totals   FleetTotals     `json:"totals"`
	Backends []BackendStats  `json:"backends"`
}

// GatewayCounters are the edge tier's own counters; they count routing
// decisions, not compute, which lives in the per-backend stats.
type GatewayCounters struct {
	// Submitted counts key-routed submissions (POST /v1/jobs and
	// /v1/segment); Proxied counts job-ID exchanges (GET, events SSE,
	// DELETE) forwarded to the record's owner.
	Submitted int64 `json:"submitted"`
	Proxied   int64 `json:"proxied"`
	// Batches counts POST /v1/batch requests, BatchItems the jobs they
	// fanned out across the fleet.
	Batches    int64 `json:"batches"`
	BatchItems int64 `json:"batch_items"`
	// RateLimited and Overloaded count 429s issued at the edge (token
	// bucket and in-flight cap respectively) before any backend saw the
	// request.
	RateLimited int64 `json:"rate_limited"`
	Overloaded  int64 `json:"overloaded"`
	// Failovers counts submissions re-routed off an unreachable owner;
	// Errors counts requests no backend could take.
	Failovers int64 `json:"failovers"`
	Errors    int64 `json:"errors"`
	InFlight  int64 `json:"inflight"`
}

// FleetSummary is the membership head-count at snapshot time.
type FleetSummary struct {
	Backends int `json:"backends"`
	Healthy  int `json:"healthy"`
	InRing   int `json:"in_ring"`
}

// FleetTotals sums the load-bearing backend counters across the fleet —
// the numbers a capacity dashboard watches without caring which replica
// served what.
type FleetTotals struct {
	JobsSubmitted int64 `json:"jobs_submitted"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	InFlight      int64 `json:"inflight"`
	Workers       int   `json:"workers"`
}

// BackendStats is one replica's contribution: its fleet-membership view
// and, when the snapshot probe reached it, its full stats document.
type BackendStats struct {
	Addr     string `json:"addr"`
	Instance string `json:"instance,omitempty"`
	Healthy  bool   `json:"healthy"`
	InRing   bool   `json:"in_ring"`
	Error    string `json:"error,omitempty"`
	// Stats is the backend's own /v1/stats document; null when the
	// snapshot probe failed.
	Stats *server.Stats `json:"stats,omitempty"`
}

// handleStats serves GET /v1/stats: gateway counters plus a live
// fleet-wide aggregation.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Instance:      g.opts.Instance,
		StartedAt:     g.metrics.start,
		UptimeSeconds: time.Since(g.metrics.start).Seconds(),
		Gateway: GatewayCounters{
			Submitted:   g.metrics.submitted.Load(),
			Proxied:     g.metrics.proxied.Load(),
			Batches:     g.metrics.batches.Load(),
			BatchItems:  g.metrics.batchItems.Load(),
			RateLimited: g.metrics.rateLimited.Load(),
			Overloaded:  g.metrics.overloaded.Load(),
			Failovers:   g.metrics.failovers.Load(),
			Errors:      g.metrics.errors.Load(),
			InFlight:    g.metrics.inflight.Load(),
		},
	}

	backends := g.reg.all()
	stats := make([]*server.Stats, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), g.opts.ProbeTimeout)
			defer cancel()
			stats[i], _ = fetchStats(ctx, g.hc, b.base)
		}()
	}
	wg.Wait()

	st.Backends = make([]BackendStats, 0, len(backends))
	for i, b := range backends {
		m := b.member()
		bs := BackendStats{Addr: m.Addr, Instance: m.Instance, Healthy: m.Healthy, InRing: m.InRing, Error: m.Error, Stats: stats[i]}
		if s := stats[i]; s != nil {
			st.Totals.JobsSubmitted += s.Jobs.SubmittedTotal
			st.Totals.CacheHits += s.Cache.Hits
			st.Totals.CacheMisses += s.Cache.Misses
			st.Totals.InFlight += s.Queue.InFlight
			st.Totals.Workers += s.Queue.Workers
		}
		st.Fleet.Backends++
		if m.Healthy {
			st.Fleet.Healthy++
		}
		if m.InRing {
			st.Fleet.InRing++
		}
		st.Backends = append(st.Backends, bs)
	}
	sortBackendStats(st.Backends)
	server.WriteJSON(w, http.StatusOK, st)
}

func sortBackendStats(bs []BackendStats) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Addr < bs[j-1].Addr; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}
