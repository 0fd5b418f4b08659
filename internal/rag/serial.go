package rag

import (
	"context"
)

// MergeSerial is the sequential baseline the paper's complexity section
// bounds against: it merges exactly one region pair per iteration — the
// globally best active edge — so a region built from R squares needs R−1
// iterations, versus log R in the best parallel case. The benchmark
// harness uses it to quantify how much parallel mutual merging buys.
// Cancellation is checked before every one-merge iteration.
//
// The "best" edge is the active edge minimising (weight, smaller ID,
// larger ID), making the baseline deterministic. It returns the same
// style of statistics as MergeAll and records its contractions the same
// way, so results remain comparable; the final segmentation is always
// valid but may differ from the mutual-merge segmentation when merge
// order affects attainable unions.
func (g *Graph) MergeSerial(ctx context.Context) (MergeStats, error) {
	var stats MergeStats
	g.startRecord()
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		k, l, found := g.bestActiveEdge()
		if !found {
			return stats, nil
		}
		stats.Iterations++
		g.contractSlots(k, l)
		stats.MergesPerIter = append(stats.MergesPerIter, 1)
	}
}

// bestActiveEdge scans for the active edge minimising (weight, min ID,
// max ID) and returns its endpoints' slots, the smaller-ID one (the
// keeper) first. The scan walks the arena in slot order; the tie-break is
// a total order over edges, so any visitation order yields the same
// winner.
func (g *Graph) bestActiveEdge() (keeper, loser int32, found bool) {
	bestW := -1
	for s := range g.adj {
		for _, n := range g.adj[s] {
			if n < int32(s) {
				continue // visit each undirected edge once
			}
			wt := g.weightSlots(int32(s), n)
			if wt > g.thr {
				continue // inactive
			}
			k, l := int32(s), n
			if g.ids[k] > g.ids[l] {
				k, l = l, k
			}
			if !found || wt < bestW || (wt == bestW && less(g.ids[k], g.ids[l], g.ids[keeper], g.ids[loser])) {
				bestW, keeper, loser, found = wt, k, l, true
			}
		}
	}
	return keeper, loser, found
}

// less orders edge (v,w) before edge (a,b) lexicographically.
func less(v, w, a, b int32) bool {
	if v != a {
		return v < a
	}
	return w < b
}
