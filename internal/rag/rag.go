package rag

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"regiongrow/internal/homog"
	"regiongrow/internal/prand"
	"regiongrow/internal/quadsplit"
)

// TiePolicy selects how a region breaks ties among equally attractive
// neighbours.
type TiePolicy int

const (
	// SmallestID picks the tied neighbour with the smallest region ID —
	// the deterministic policy the paper shows serialises merging.
	SmallestID TiePolicy = iota
	// LargestID picks the tied neighbour with the largest region ID.
	LargestID
	// Random picks a tied neighbour pseudo-randomly — the paper's
	// improvement, yielding more merges per iteration. The draw is a pure
	// function of (seed, iteration, chooser ID) so runs are reproducible.
	Random
)

// String returns the policy name used in experiment records.
func (p TiePolicy) String() string {
	switch p {
	case SmallestID:
		return "smallest-id"
	case LargestID:
		return "largest-id"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("TiePolicy(%d)", int(p))
	}
}

// AllTiePolicies returns every valid policy in declaration order. The
// facade's enumerating error messages and round-trip tests derive from it
// so the list cannot drift from the constants.
func AllTiePolicies() []TiePolicy { return []TiePolicy{SmallestID, LargestID, Random} }

// TiePolicyNames names every policy of AllTiePolicies, in order, as
// "smallest-id, largest-id, or random": the list that the errors refusing
// an unknown policy give.
func TiePolicyNames() string {
	all := AllTiePolicies()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.String()
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + ", or " + names[last]
}

// MarshalText implements encoding.TextMarshaler with the String name, so
// JSON wire types and flag packages round-trip policies without ad-hoc
// switches. Unknown policies fail rather than emitting a name
// UnmarshalText would reject.
func (p TiePolicy) MarshalText() ([]byte, error) {
	switch p {
	case SmallestID, LargestID, Random:
		return []byte(p.String()), nil
	default:
		return nil, fmt.Errorf("rag: cannot marshal unknown tie policy %d", int(p))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler: it accepts the
// String names case-insensitively, matching the facade's ParseTiePolicy
// (which delegates here).
func (p *TiePolicy) UnmarshalText(text []byte) error {
	for _, c := range AllTiePolicies() {
		if strings.EqualFold(c.String(), string(text)) {
			*p = c
			return nil
		}
	}
	return fmt.Errorf("rag: unknown tie policy %q (want %s)", text, TiePolicyNames())
}

// noSlot marks a slot with no merge choice in slot-indexed choice arrays.
const noSlot int32 = -1

// Graph is a mutable region adjacency graph stored as a flat arena:
// parallel slices indexed by a dense slot number. Every vertex keeps its
// region ID (the linear pixel index of the region's origin), which the
// tie contract orders by, but the graph never looks a region up by ID:
// its builders, its merges and its relabel name regions by slot. A slot
// holds its square's ID until MergeAll keeps a merged region in the slot
// of its larger-ID half, which then takes the smaller ID; so after a
// merge, slot order is no longer ID order.
// Contraction never compacts the arena — a merged-away region just goes
// dead in place — so slot numbers are stable for the graph's lifetime and
// adjacency can be held as sorted []int32 slot lists instead of per-vertex
// maps. Edge weights are not stored: they are always derivable from the
// endpoint intervals, which is exactly how the engines keep them
// consistent under contraction.
//
// The arena is also the record of the merge for every engine that merges
// on it: MergeAll, MergeSerial and the first ContractSlots allocate a
// contraction record, each slot naming the slot it was contracted into,
// so Relabel and RootSlot resolve any slot the graph ever held.
//
// The layout is profile-driven: with the earlier map-of-pointers
// representation the sequential kernel spent the majority of its merge
// time in Go map iteration and hashing. The arena turns the choice scan
// into linear walks over int32 and uint8 slices.
type Graph struct {
	// thr is the threshold T: an edge is active when its weight is at
	// most thr, a pure integer test in the hot loops.
	thr int

	ids    []int32   // slot → region ID
	lo, hi []uint8   // slot → intensity interval bounds
	alive  []bool    // slot → not yet contracted away
	adj    [][]int32 // slot → sorted neighbour slots (live slots only)
	nAlive int
	// parent is the contraction record: slot → the slot it was contracted
	// into, itself while live. It is nil until merging starts, so building
	// a graph never pays for it.
	parent []int32
	// merged is contractSlots' scratch, where the keeper's new list is
	// built before it is copied back.
	merged []int32
}

// NewGraph returns an empty graph whose edges are active at weights up
// to threshold.
func NewGraph(threshold int) *Graph {
	return &Graph{thr: threshold}
}

// AddVertex appends a region with the given ID and interval and returns
// its slot, the next one of the arena.
func (g *Graph) AddVertex(id int32, iv homog.Interval) int32 {
	s := int32(len(g.ids))
	g.ids = append(g.ids, id)
	g.lo = append(g.lo, iv.Lo)
	g.hi = append(g.hi, iv.Hi)
	g.alive = append(g.alive, true)
	g.adj = append(g.adj, nil)
	if g.parent != nil {
		g.parent = append(g.parent, s)
	}
	g.nAlive++
	return s
}

// UnionInterval widens slot s's interval to its union with iv.
func (g *Graph) UnionInterval(s int32, iv homog.Interval) {
	// Branch-free union: exact even against the Empty sentinel
	// {MaxIntensity, 0}, whose bounds are absorbed by min/max.
	g.lo[s] = min(g.lo[s], iv.Lo)
	g.hi[s] = max(g.hi[s], iv.Hi)
}

// AddEdge records adjacency between slots a and b. Self-edges are
// ignored; parallel edges coalesce. Both endpoints must be live slots.
func (g *Graph) AddEdge(a, b int32) {
	if a == b {
		return
	}
	for _, s := range [2]int32{a, b} {
		if s < 0 || int(s) >= len(g.alive) || !g.alive[s] {
			panic(fmt.Sprintf("rag: AddEdge endpoint %d is not a live slot of %d", s, len(g.alive)))
		}
	}
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
}

// insertSorted adds x to a sorted slot list, keeping it sorted and
// duplicate-free.
func insertSorted(list []int32, x int32) []int32 {
	i, found := slices.BinarySearch(list, x)
	if found {
		return list
	}
	return slices.Insert(list, i, x)
}

// swapSorted replaces x, which must be in the sorted slot list, by y,
// moving the entries between their two places by one, or drops x when y
// is already there (shared). It never leaves the list's storage.
func swapSorted(list []int32, x, y int32, shared bool) []int32 {
	i, _ := slices.BinarySearch(list, x)
	if shared {
		copy(list[i:], list[i+1:])
		return list[:len(list)-1]
	}
	for ; i > 0 && list[i-1] > y; i-- {
		list[i] = list[i-1]
	}
	for ; i+1 < len(list) && list[i+1] < y; i++ {
		list[i] = list[i+1]
	}
	list[i] = y
	return list
}

// NumVertices returns the current (live) vertex count.
func (g *Graph) NumVertices() int { return g.nAlive }

// weightSlots returns the edge weight between two live slots: the pixel
// range of the union of their intervals. The min/max union is exact for
// every combination of operands (including the Empty sentinel), and the
// clamp to zero reproduces the scalar algebra's "empty interval has range
// 0" convention when both endpoints are empty.
func (g *Graph) weightSlots(a, b int32) int {
	return max(int(max(g.hi[a], g.hi[b]))-int(min(g.lo[a], g.lo[b])), 0)
}

// Slots returns the arena size: live and dead slots together. Slot
// numbers are stable, so engines iterate 0..Slots() and filter with
// SlotAlive; the order is insertion order and identical on every run.
func (g *Graph) Slots() int { return len(g.ids) }

// SlotID returns the region ID held by slot s: its square's ID until a
// merge, and after MergeAll the ID of the region the slot holds, which
// may be a smaller one than its square's (see MergeAll).
func (g *Graph) SlotID(s int) int32 { return g.ids[s] }

// SlotNeighbours returns the live slot s's neighbour slots in ascending
// slot order. The slice is the graph's own: read it, do not keep it
// across a mutation.
func (g *Graph) SlotNeighbours(s int) []int32 { return g.adj[s] }

// SlotAlive reports whether slot s still holds a live region.
func (g *Graph) SlotAlive(s int) bool { return g.alive[s] }

// SlotInterval returns the interval of the region in slot s.
func (g *Graph) SlotInterval(s int) homog.Interval {
	return homog.Interval{Lo: g.lo[s], Hi: g.hi[s]}
}

// SlotChoice computes the merge choice of the live region in slot s: the
// active neighbour with minimal edge weight, ties broken by policy. It
// returns the chosen neighbour's slot (or −1 for no choice) plus the
// possibly-grown tie scratch, which holds no live data between calls.
// nodeprog calls it for every owned slot each round; MergeAll runs the
// same scan and pick incrementally.
func (g *Graph) SlotChoice(s int, policy TiePolicy, seed uint64, iter int, tied []int32) (int, []int32) {
	sole, tied := g.scan(int32(s), tied)
	if len(tied) == 0 {
		return int(sole), tied
	}
	return int(pickTied(tied, policy, prand.Hash2(seed, uint64(iter)), g.ids[s])), tied
}

// ContractSlots merges the region in slot loser into the one in slot
// keeper (both live) and records it, starting the record on the first
// call: nodeprog contracts through it and resolves through RootSlot.
func (g *Graph) ContractSlots(keeper, loser int) {
	g.startRecord()
	g.contractSlots(int32(keeper), int32(loser))
}

// addCheckSquares is how many squares AddSquares adds between context
// checks — frequent enough that cancellation lands well within one
// stage, rare enough to keep the check off the per-square path.
const addCheckSquares = 4096

// AddSquares adds a split's squares to g: one vertex per square, in list
// order, and one edge per slot pair of edges, the split's edge list
// (quadsplit.Result.Edges), which names each adjacency once. A square's
// list ID is its north-west pixel's index in a raster w pixels wide; a
// square at raster index p gets the region ID
// origin + (p/w)·stride + p%w, and the square in list slot k graph slot
// base+k, where base is Slots() before the call. So a whole image builds
// at (0, W), a full-width band whose first row is image row y0 at
// (y0·W, W), and a tile at (x0, y0) of a W-wide image at (y0·W+x0, W).
// Cancellation is checked every few thousand squares; it returns
// ctx.Err() when ctx is done.
//
// This is the graph of the split's painted slots, slot for slot, as a
// build that scans a label raster row by row would make it (rag's tests
// keep one, BuildFromLabels, as the reference): the list is in ID order,
// which is the order in which a row scan meets the squares, the split
// lists every 4-adjacent pair of squares once, and a square's recorded
// interval is the union of its pixels.
//
// The slot arrays grow once per call. The edges give every new slot's
// degree exactly, so one arena is cut into lists capped at those degrees
// and filled, and each list is then sorted. A list that later outgrows
// its cap (AddEdge) moves to its own allocation.
func (g *Graph) AddSquares(ctx context.Context, squares []quadsplit.Square, edges []int32, w int, origin, stride int) error {
	if len(squares) == 0 {
		return nil
	}
	if w <= 0 || len(edges)%2 != 0 {
		panic(fmt.Sprintf("rag: %d edge slots for squares in rows of %d", len(edges), w))
	}
	n := len(squares)
	base := int32(len(g.ids))
	g.ids = slices.Grow(g.ids, n)
	g.lo, g.hi = slices.Grow(g.lo, n), slices.Grow(g.hi, n)
	g.alive = slices.Grow(g.alive, n)
	g.adj = slices.Grow(g.adj, n)
	if g.parent != nil {
		g.parent = slices.Grow(g.parent, n)
	}
	for k, sq := range squares {
		if k%addCheckSquares == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		p := int(sq.ID)
		g.AddVertex(int32(origin+p/w*stride+p%w), sq.IV)
	}
	// The edges name list slots: the new slots' lists are adj[a] and
	// adj[b], and their degrees deg[a] and deg[b].
	adj, deg := g.adj[base:], make([]int32, n)
	for _, s := range edges {
		deg[s]++
	}
	arena := make([]int32, len(edges))
	for k, d := range deg {
		adj[k], arena = arena[:0:d], arena[d:]
	}
	for i := 0; i < len(edges); i += 2 {
		a, b := edges[i], edges[i+1]
		adj[a] = append(adj[a], base+b)
		adj[b] = append(adj[b], base+a)
	}
	for _, list := range adj {
		slices.Sort(list)
	}
	return nil
}

// scan is the first half of the choice kernel: a linear walk of slot s's
// sorted neighbour list tracking the minimum active edge weight. It
// returns the sole best neighbour's slot; or noSlot, with tied holding
// every neighbour at the best weight (at least two) in ascending region-ID
// order; or noSlot and an empty tied when s has no active edge. tied is
// the caller's scratch, reset and possibly grown. The single-best case
// (the overwhelmingly common one) never touches the tie list — the
// winning slot rides along in sole. Weight and activity are plain integer
// min/max chains with no data dependence between neighbours, so the loop
// keeps multiple issue pipes busy.
func (g *Graph) scan(s int32, tied []int32) (int32, []int32) {
	adjList := g.adj[s]
	lo0, hi0 := g.lo[s], g.hi[s]
	los, his := g.lo, g.hi
	bestW := -1
	sole := noSlot
	tied = tied[:0]
	thr := g.thr
	for _, n := range adjList {
		wt := max(int(max(hi0, his[n]))-int(min(lo0, los[n])), 0)
		if wt > thr {
			continue
		}
		if bestW < 0 || wt < bestW {
			bestW, sole = wt, n
			tied = tied[:0]
		} else if wt == bestW {
			if sole != noSlot {
				tied = append(tied, sole)
				sole = noSlot
			}
			tied = append(tied, n)
		}
	}
	// Insertion sort: tie lists are short, and mostly in ID order already,
	// since slot order follows first appearance in raster order until
	// MergeAll moves smaller IDs into hubs' slots.
	ids := g.ids
	for i := 1; i < len(tied); i++ {
		for j := i; j > 0 && ids[tied[j]] < ids[tied[j-1]]; j-- {
			tied[j], tied[j-1] = tied[j-1], tied[j]
		}
	}
	return sole, tied
}

// pickTied is the second half of the choice kernel: it resolves a tie
// for the chooser with region ID id among tied, the tied candidates in
// ascending region-ID order. SmallestID takes the first, LargestID the
// last, and Random index Hash3(seed, iter, id) mod len(tied), computed
// as prand.Mix(round, id) from round = prand.Hash2(seed, iter), which
// the deterministic policies ignore. An unknown policy panics rather
// than falling back to any of them.
//
// This is the cross-engine tie contract: every engine enumerates the tied
// candidates of a region as a set, orders them by region ID, and resolves
// them here, so identical (seed, iter, graph) yields identical choices
// everywhere.
func pickTied(tied []int32, policy TiePolicy, round uint64, id int32) int32 {
	switch policy {
	case SmallestID:
		return tied[0]
	case LargestID:
		return tied[len(tied)-1]
	case Random:
		k := prand.Mix(round, uint64(uint32(id))) % uint64(len(tied))
		return tied[k]
	default:
		panic(fmt.Sprintf("rag: unknown tie policy %d", int(policy)))
	}
}

// MergeStats reports what the merge stage did.
type MergeStats struct {
	// Iterations is the number of choice/merge rounds executed while at
	// least one active edge existed (the paper's merge iteration count).
	Iterations int
	// MergesPerIter records region pairs merged in each iteration.
	MergesPerIter []int
	// ForcedResolutions counts iterations where the Random policy stalled
	// (no mutual pair despite active edges) three times in a row and one
	// round of SmallestID was forced to guarantee progress.
	ForcedResolutions int
}

// TotalMerges sums merges over all iterations.
func (s MergeStats) TotalMerges() int {
	total := 0
	for _, m := range s.MergesPerIter {
		total += m
	}
	return total
}

// Drive runs the merge-stage round loop every engine shares. Before each
// round it checks ctx and fixes the round's effective policy: SmallestID
// once the Random policy has stalled (no merges despite active edges)
// three rounds in a row, so progress is guaranteed, and policy otherwise.
// round, given that policy and the round's 1-based number, tests for an
// active edge (under that policy, if its test chooses) and either merges,
// returning the pairs merged and active true, or returns active false,
// which ends the merge. Only an active round counts, forced or not. Drive
// returns the stats of the rounds before the end with ctx.Err() or
// round's error; nil means the merge ran to completion, and cancelling
// mid-merge aborts within one round.
//
// Engines differ only in how they evaluate a round: incrementally on the
// host (MergeAll, the kernel of the host engines and of stream), on a
// simulated machine (dpengine), or as a node program whose activity test
// is a collective (nodeprog). The round numbering, stall accounting and
// forced resolutions live here, so the engines cannot drift apart.
func Drive(ctx context.Context, policy TiePolicy, round func(effective TiePolicy, iter int) (merged int, active bool, err error)) (MergeStats, error) {
	var stats MergeStats
	stalls := 0
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		effective := policy
		forced := policy == Random && stalls >= 3
		if forced {
			effective = SmallestID
		}
		merged, active, err := round(effective, stats.Iterations+1)
		if err != nil || !active {
			return stats, err
		}
		stats.Iterations++
		stats.MergesPerIter = append(stats.MergesPerIter, merged)
		if forced {
			stats.ForcedResolutions++
		}
		if merged == 0 {
			stalls++
		} else {
			stalls = 0
		}
	}
}

// MergeAll is the sequential merge stage: it runs merge iterations on
// Drive until no active edges remain, mutating the graph, and calls
// onRound (if non-nil) after every round with its 1-based number and
// merge count. It returns per-iteration statistics; on cancellation it
// returns ctx.Err(). Every contraction lands in the graph's contraction
// record, from which Relabel and RootSlot resolve the final regions.
//
// A mutual pair merges into one region named by the smaller of its two
// IDs. The region stays in the smaller-ID slot unless the other slot's
// adjacency list is more than twice as long: then that slot, a hub,
// keeps it and takes the smaller ID, and its neighbours' lists need no
// edit (see merger.contract). So after the merge a slot may hold a
// smaller ID than its square's.
//
// The rounds are incremental but compute exactly the full-scan rounds
// SlotChoice defines: each slot's choice persists across rounds and is
// rescanned only when a contraction changed its scan inputs or can have
// changed its tie order (see merger.contract), under Random tied slots
// re-pick from a cached tie list, and the mutual-pair search starts only
// from slots whose choice was set this round.
func (g *Graph) MergeAll(ctx context.Context, policy TiePolicy, seed uint64, onRound func(iter, merged int)) (MergeStats, error) {
	g.startRecord()
	m := newMerger(g, policy, seed)
	m.onRound = onRound
	return Drive(ctx, policy, m.step)
}

// step is MergeAll's round on Drive: rescan is its activity test, then
// the mutual pairs merge and onRound, if set, sees the count.
func (m *merger) step(effective TiePolicy, iter int) (int, bool, error) {
	if !m.rescan() {
		return 0, false, nil
	}
	merged := m.pairs(effective, iter)
	if m.onRound != nil {
		m.onRound(iter, merged)
	}
	return merged, true, nil
}

// startRecord allocates the contraction record, every slot its own root,
// unless merging already started once.
func (g *Graph) startRecord() {
	if g.parent != nil {
		return
	}
	g.parent = make([]int32, len(g.ids))
	for s := range g.parent {
		g.parent[s] = int32(s)
	}
}

// contractSlots merges the region in slot l into the one in slot k; l
// stays in the arena, dead, for the relabel. The keeper's interval
// becomes the union. One linear merge of the two sorted lists builds k's
// new list, without k and l, in the graph's scratch, and on the way each
// neighbour of l swaps l for k inside its own list, or drops l when it
// neighbours k too. The new list is copied back into the larger of the
// two lists' storage when it fits there, and into a new allocation when
// it does not; no list grows one insert at a time.
func (g *Graph) contractSlots(k, l int32) {
	g.lo[k] = min(g.lo[k], g.lo[l])
	g.hi[k] = max(g.hi[k], g.hi[l])
	a, b := g.adj[k], g.adj[l]
	merged, i := g.merged[:0], 0
	for _, n := range b {
		if n == k {
			continue
		}
		for ; i < len(a) && a[i] < n; i++ {
			if a[i] != l {
				merged = append(merged, a[i])
			}
		}
		shared := i < len(a) && a[i] == n
		if shared {
			i++
		}
		merged = append(merged, n)
		g.adj[n] = swapSorted(g.adj[n], l, k, shared)
	}
	for _, n := range a[i:] {
		if n != l {
			merged = append(merged, n)
		}
	}
	g.merged = merged
	dst := a
	if cap(b) > cap(dst) {
		dst = b
	}
	g.adj[k] = append(dst[:0], merged...)
	g.adj[l] = nil
	g.alive[l] = false
	g.nAlive--
	if g.parent != nil {
		g.parent[l] = k
	}
}

// Region is one live region of a merged graph: its ID, its intensity
// interval, and its area in pixels of the squares Relabel resolved.
type Region struct {
	ID   int32
	IV   homog.Interval
	Area int
}

// root returns the live slot that slot s was contracted into, halving
// the path on the way.
func (g *Graph) root(s int32) int32 {
	p := g.parent
	if p == nil {
		return s
	}
	for p[s] != s {
		p[s] = p[p[s]]
		s = p[s]
	}
	return s
}

// RootSlot returns the slot of the live region that the region first
// held by slot s ended up in: s itself while it is live.
func (g *Graph) RootSlot(s int) int { return int(g.root(int32(s))) }

// Relabel resolves the squares the graph was built from to the final
// regions: square k of squares is graph slot k (a split's list added to
// an empty graph), in a raster w×h whose pixel index is each square's
// ID. It returns each pixel's final region ID and the live regions in
// ascending ID order with their areas, or nil when there are none. A list
// longer than the graph's slots panics.
//
// Each square resolves its slot through the contraction record once,
// paints the root's ID over its pixels (quadsplit.Paint) and adds its
// side² to the root's area; the region list costs one pass over the
// slots, not over the pixels.
func (g *Graph) Relabel(squares []quadsplit.Square, w, h int) ([]int32, []Region) {
	if len(squares) > len(g.ids) {
		panic(fmt.Sprintf("rag: Relabel of %d squares, the graph holds %d slots", len(squares), len(g.ids)))
	}
	out := make([]int32, w*h)
	if len(out) == 0 {
		return out, nil
	}
	area := make([]int32, len(g.ids))
	for k, sq := range squares {
		r, side := g.root(int32(k)), sq.Side()
		quadsplit.Paint(out, int(sq.ID), side, w, g.ids[r])
		area[r] += int32(side * side)
	}
	if g.nAlive == 0 {
		return out, nil
	}
	regions := make([]Region, 0, g.nAlive)
	for s, alive := range g.alive {
		if alive {
			regions = append(regions, Region{ID: g.ids[s], IV: g.SlotInterval(s), Area: int(area[s])})
		}
	}
	// A merge leaves slot order out of ID order (MergeAll may move a
	// smaller ID into a hub's slot), and other builds may not start in it.
	slices.SortFunc(regions, func(a, b Region) int { return cmp.Compare(a.ID, b.ID) })
	return out, regions
}
