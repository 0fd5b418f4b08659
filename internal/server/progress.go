package server

import "sync/atomic"

// progressMetrics are the server-wide per-stage gauges and totals fed by
// every job's record and served on /v1/stats. The gauges count jobs
// currently computing in each stage — including jobs whose client has
// already gone under the warm-abandoned policy, since those still occupy
// a worker.
type progressMetrics struct {
	inSplit, inGraph, inMerge          atomic.Int64
	splitsDone, mergeIters, mergesDone atomic.Int64
}

// ProgressStats is the per-stage progress block of /v1/stats, fed by the
// engines' stage observers.
type ProgressStats struct {
	// Gauges: jobs currently computing in each stage.
	InSplit int64 `json:"in_split"`
	InGraph int64 `json:"in_graph"`
	InMerge int64 `json:"in_merge"`
	// Totals since start.
	SplitsDoneTotal      int64 `json:"splits_done_total"`
	MergeIterationsTotal int64 `json:"merge_iterations_total"`
	MergesTotal          int64 `json:"merges_total"`
}

func (p *progressMetrics) snapshot() ProgressStats {
	return ProgressStats{
		InSplit:              p.inSplit.Load(),
		InGraph:              p.inGraph.Load(),
		InMerge:              p.inMerge.Load(),
		SplitsDoneTotal:      p.splitsDone.Load(),
		MergeIterationsTotal: p.mergeIters.Load(),
		MergesTotal:          p.mergesDone.Load(),
	}
}
