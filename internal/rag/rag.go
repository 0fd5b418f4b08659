package rag

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
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
	return fmt.Errorf("rag: unknown tie policy %q (want random, smallest-id, or largest-id)", text)
}

// NoChoice marks a vertex with no mergeable neighbour.
const NoChoice int32 = -1

// noSlot marks a slot with no merge choice in slot-indexed choice arrays.
const noSlot int32 = -1

// Graph is a mutable region adjacency graph stored as a flat arena:
// parallel slices indexed by a dense slot number, plus one map translating
// region IDs (the linear pixel index of a region's origin) to slots.
// Contraction never compacts the arena — a merged-away region just goes
// dead in place — so slot numbers are stable for the graph's lifetime and
// adjacency can be held as sorted []int32 slot lists instead of per-vertex
// maps. Edge weights are not stored: they are always derivable from the
// endpoint intervals, which is exactly how the engines keep them
// consistent under contraction.
//
// The layout is profile-driven: with the earlier map-of-pointers
// representation the sequential kernel spent the majority of its merge
// time in Go map iteration and hashing. The arena turns the choice scan
// into linear walks over int32 and uint8 slices.
type Graph struct {
	Crit homog.Criterion

	// thr is the RangeCriterion threshold when Crit is one, else −1. The
	// hot loops then test edge activity as weight ≤ thr with pure integer
	// arithmetic instead of an interface call per edge.
	thr int

	slotOf map[int32]int32 // live region ID → slot
	ids    []int32         // slot → region ID
	lo, hi []uint8         // slot → intensity interval bounds
	alive  []bool          // slot → not yet contracted away
	adj    [][]int32       // slot → sorted neighbour slots (live slots only)
	nAlive int

	choice []int32 // MergeIteration scratch: slot → chosen slot
	tied   []int32 // tie-list scratch
}

// NewGraph returns an empty graph over the criterion.
func NewGraph(crit homog.Criterion) *Graph {
	g := &Graph{Crit: crit, thr: -1, slotOf: make(map[int32]int32)}
	if rc, ok := crit.(homog.RangeCriterion); ok {
		g.thr = rc.T
	}
	return g
}

// AddVertex inserts a region with the given interval. Re-adding an ID
// unions the intervals (useful when assembling from partial scans).
func (g *Graph) AddVertex(id int32, iv homog.Interval) {
	if s, ok := g.slotOf[id]; ok {
		// Branch-free union: exact even against the Empty sentinel
		// {MaxIntensity, 0}, whose bounds are absorbed by min/max.
		g.lo[s] = min(g.lo[s], iv.Lo)
		g.hi[s] = max(g.hi[s], iv.Hi)
		return
	}
	s := int32(len(g.ids))
	g.slotOf[id] = s
	g.ids = append(g.ids, id)
	g.lo = append(g.lo, iv.Lo)
	g.hi = append(g.hi, iv.Hi)
	g.alive = append(g.alive, true)
	g.adj = append(g.adj, nil)
	g.nAlive++
}

// AddEdge records adjacency between regions a and b. Self-edges are
// ignored; parallel edges coalesce. Both endpoints must exist.
func (g *Graph) AddEdge(a, b int32) {
	if a == b {
		return
	}
	sa, ok := g.slotOf[a]
	if !ok {
		panic(fmt.Sprintf("rag: AddEdge endpoint %d missing", a))
	}
	sb, ok := g.slotOf[b]
	if !ok {
		panic(fmt.Sprintf("rag: AddEdge endpoint %d missing", b))
	}
	g.adj[sa] = insertSorted(g.adj[sa], sb)
	g.adj[sb] = insertSorted(g.adj[sb], sa)
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

// removeSorted deletes x from a sorted slot list if present.
func removeSorted(list []int32, x int32) []int32 {
	i, found := slices.BinarySearch(list, x)
	if !found {
		return list
	}
	return slices.Delete(list, i, i+1)
}

// NumVertices returns the current (live) vertex count.
func (g *Graph) NumVertices() int { return g.nAlive }

// NumEdges returns the current undirected edge count.
func (g *Graph) NumEdges() int {
	total := 0
	for s := range g.adj {
		total += len(g.adj[s]) // dead slots hold nil lists
	}
	return total / 2
}

// weightSlots returns the edge weight between two live slots: the pixel
// range of the union of their intervals. The min/max union is exact for
// every combination of operands (including the Empty sentinel), and the
// clamp to zero reproduces the scalar algebra's "empty interval has range
// 0" convention when both endpoints are empty.
func (g *Graph) weightSlots(a, b int32) int {
	return max(int(max(g.hi[a], g.hi[b]))-int(min(g.lo[a], g.lo[b])), 0)
}

// activeSlots reports whether the edge between two live slots satisfies
// the criterion.
func (g *Graph) activeSlots(a, b int32) bool {
	if g.thr >= 0 {
		return g.weightSlots(a, b) <= g.thr
	}
	ulo, uhi := min(g.lo[a], g.lo[b]), max(g.hi[a], g.hi[b])
	return g.Crit.Homogeneous(homog.Interval{Lo: ulo, Hi: uhi})
}

// ActiveEdges counts edges satisfying the criterion.
func (g *Graph) ActiveEdges() int {
	total := 0
	for s := range g.adj {
		for _, n := range g.adj[s] {
			if n > int32(s) && g.activeSlots(int32(s), n) {
				total++
			}
		}
	}
	return total
}

// HasActive reports whether any edge satisfies the criterion, returning at
// the first hit. Merge drivers use it as their loop condition: profiles
// showed the full ActiveEdges count rivalling the choice scan itself, and
// the drivers only ever need the boolean.
func (g *Graph) HasActive() bool {
	for s := range g.adj {
		for _, n := range g.adj[s] {
			if n > int32(s) && g.activeSlots(int32(s), n) {
				return true
			}
		}
	}
	return false
}

// Weight returns the edge weight between regions a and b: the pixel range
// of the union of their intervals. Both regions must exist.
func (g *Graph) Weight(a, b int32) int {
	return homog.Weight(g.IntervalOf(a), g.IntervalOf(b))
}

// IntervalOf returns the current intensity interval of region id, which
// must exist.
func (g *Graph) IntervalOf(id int32) homog.Interval {
	s, ok := g.slotOf[id]
	if !ok {
		panic(fmt.Sprintf("rag: IntervalOf(%d) on missing vertex", id))
	}
	return homog.Interval{Lo: g.lo[s], Hi: g.hi[s]}
}

// Contains reports whether region id is (still) in the graph.
func (g *Graph) Contains(id int32) bool {
	_, ok := g.slotOf[id]
	return ok
}

// Degree returns the number of neighbours of region id, which must exist.
func (g *Graph) Degree(id int32) int {
	s, ok := g.slotOf[id]
	if !ok {
		panic(fmt.Sprintf("rag: Degree(%d) on missing vertex", id))
	}
	return len(g.adj[s])
}

// HasEdge reports whether regions a and b are adjacent; both must exist.
func (g *Graph) HasEdge(a, b int32) bool {
	sa, ok := g.slotOf[a]
	if !ok {
		panic(fmt.Sprintf("rag: HasEdge endpoint %d missing", a))
	}
	sb, ok := g.slotOf[b]
	if !ok {
		panic(fmt.Sprintf("rag: HasEdge endpoint %d missing", b))
	}
	_, found := slices.BinarySearch(g.adj[sa], sb)
	return found
}

// Slots returns the arena size: live and dead slots together. Slot
// numbers are stable, so engines iterate 0..Slots() and filter with
// SlotAlive; the order is insertion order and identical on every run.
func (g *Graph) Slots() int { return len(g.ids) }

// SlotID returns the region ID held by slot s.
func (g *Graph) SlotID(s int) int32 { return g.ids[s] }

// SlotOf returns the slot of live region id, and false if id is not in
// the graph.
func (g *Graph) SlotOf(id int32) (int, bool) {
	s, ok := g.slotOf[id]
	return int(s), ok
}

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

// SlotHasActive reports whether the live region in slot s has at least one
// active incident edge.
func (g *Graph) SlotHasActive(s int) bool {
	for _, n := range g.adj[s] {
		if g.activeSlots(int32(s), n) {
			return true
		}
	}
	return false
}

// SlotChoice computes the merge choice of the live region in slot s,
// returning the chosen neighbour's slot (or −1 for no choice) plus the
// possibly-grown tie scratch. It is the slot-level form of Choose for
// engines that fan the choice scan out over workers against a read-only
// graph.
func (g *Graph) SlotChoice(s int, policy TiePolicy, seed uint64, iter int, tied []int32) (int, []int32) {
	c, tied := g.slotChoice(int32(s), policy, seed, iter, tied)
	return int(c), tied
}

// ContractSlots merges the region in slot loser into the one in slot
// keeper (both live).
func (g *Graph) ContractSlots(keeper, loser int) {
	g.contractSlots(int32(keeper), int32(loser))
}

// buildCheckRows is how many image rows BuildFromLabels processes
// between context checks — frequent enough that cancellation lands well
// within one stage, rare enough to keep the check off the per-pixel path.
const buildCheckRows = 64

// BuildFromLabels constructs the RAG of a labelled image: one vertex per
// label with the interval of its pixels, one edge per 4-adjacent label
// pair. This is how the merge stage receives the split stage's output.
// Cancellation is checked every few rows; it returns (nil, ctx.Err())
// when ctx is done.
//
// The builder is run-length: label arrays out of the split stage are long
// horizontal runs (one per square per row), so vertices accrue one
// interval union per run (via the packed SWAR row scan) instead of one
// per pixel, horizontal edges one AddEdge per run boundary, and vertical
// edges one AddEdge per overlap segment of the two rows' run structures.
// The result is identical to the per-pixel build for arbitrary labels.
func BuildFromLabels(ctx context.Context, im *pixmap.Image, labels []int32, crit homog.Criterion) (*Graph, error) {
	w, h := im.W, im.H
	if len(labels) != w*h {
		panic(fmt.Sprintf("rag: %d labels for %dx%d image", len(labels), w, h))
	}
	g := NewGraph(crit)
	for y := 0; y < h; y++ {
		if y%buildCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := labels[y*w : y*w+w]
		pix := im.Pix[y*w : y*w+w]
		for x := 0; x < w; {
			lab := row[x]
			x1 := x + 1
			for x1 < w && row[x1] == lab {
				x1++
			}
			lo, hi := homog.RowMinMax(pix[x:x1])
			g.AddVertex(lab, homog.Interval{Lo: lo, Hi: hi})
			x = x1
		}
	}
	for y := 0; y < h; y++ {
		if y%buildCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := labels[y*w : y*w+w]
		for x := 0; x+1 < w; {
			lab := row[x]
			x1 := x + 1
			for x1 < w && row[x1] == lab {
				x1++
			}
			if x1 < w {
				g.AddEdge(lab, row[x1]) // runs end exactly at label changes
			}
			x = x1
		}
		if y+1 >= h {
			continue
		}
		rowB := labels[(y+1)*w : (y+2)*w]
		for x := 0; x < w; {
			la, lb := row[x], rowB[x]
			x1 := x + 1
			for x1 < w && row[x1] == la && rowB[x1] == lb {
				x1++
			}
			if la != lb {
				g.AddEdge(la, lb)
			}
			x = x1
		}
	}
	return g, nil
}

// Absorb grafts every live vertex and edge of other into g, unioning
// intervals of IDs present in both. Engines that build partial graphs per
// image band use it to assemble the global graph; the graft order follows
// other's stable slot order, so assembly is deterministic.
func (g *Graph) Absorb(other *Graph) {
	for s, id := range other.ids {
		if !other.alive[s] {
			continue
		}
		g.AddVertex(id, homog.Interval{Lo: other.lo[s], Hi: other.hi[s]})
	}
	for s := range other.ids {
		for _, n := range other.adj[s] {
			if n > int32(s) {
				g.AddEdge(other.ids[s], other.ids[n])
			}
		}
	}
}

// Choose computes the merge choice of region id at the given iteration:
// the active neighbour with minimal edge weight, ties broken by policy.
// It returns NoChoice when the region has no active neighbour.
//
// This function is the cross-engine contract: all engines enumerate tied
// candidates as a set of IDs, pickTied sorts them ascending, and the
// Random policy selects index Hash3(seed, iter, id) mod count among them,
// so identical (seed, iter, graph) yields identical choices everywhere.
func (g *Graph) Choose(id int32, policy TiePolicy, seed uint64, iter int) int32 {
	c, _ := g.ChooseBuf(id, policy, seed, iter, nil)
	return c
}

// ChooseBuf is Choose with a caller-owned scratch slice for the tie list;
// it returns the choice and the (possibly grown) scratch so a loop over
// many vertices amortises the allocation. The returned slice holds no
// live data between calls.
func (g *Graph) ChooseBuf(id int32, policy TiePolicy, seed uint64, iter int, tied []int32) (int32, []int32) {
	s, ok := g.slotOf[id]
	if !ok {
		panic(fmt.Sprintf("rag: Choose(%d) on missing vertex", id))
	}
	c, tied := g.slotChoice(s, policy, seed, iter, tied)
	if c < 0 {
		return NoChoice, tied
	}
	return g.ids[c], tied
}

// slotChoice is the choice kernel: a linear scan of slot s's sorted
// neighbour list tracking the minimum weight. The single-best case (the
// overwhelmingly common one) never touches the tie list or the ID map —
// the winning slot rides along in sole. Weight and activity are plain
// integer min/max chains with no data dependence between neighbours, so
// the loop keeps multiple issue pipes busy.
func (g *Graph) slotChoice(s int32, policy TiePolicy, seed uint64, iter int, tied []int32) (int32, []int32) {
	adjList := g.adj[s]
	lo0, hi0 := g.lo[s], g.hi[s]
	los, his := g.lo, g.hi
	bestW := -1
	sole := noSlot
	tied = tied[:0]
	if thr := g.thr; thr >= 0 {
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
					tied = append(tied, g.ids[sole])
					sole = noSlot
				}
				tied = append(tied, g.ids[n])
			}
		}
	} else {
		for _, n := range adjList {
			ulo, uhi := min(lo0, los[n]), max(hi0, his[n])
			if !g.Crit.Homogeneous(homog.Interval{Lo: ulo, Hi: uhi}) {
				continue
			}
			wt := max(int(uhi)-int(ulo), 0)
			if bestW < 0 || wt < bestW {
				bestW, sole = wt, n
				tied = tied[:0]
			} else if wt == bestW {
				if sole != noSlot {
					tied = append(tied, g.ids[sole])
					sole = noSlot
				}
				tied = append(tied, g.ids[n])
			}
		}
	}
	if bestW < 0 {
		return noSlot, tied
	}
	if sole != noSlot {
		return sole, tied
	}
	id := pickTied(tied, policy, seed, iter, g.ids[s])
	return g.slotOf[id], tied
}

// pickTied resolves a tie among candidate neighbour IDs for chooser id.
// The slice may be reordered in place.
func pickTied(tied []int32, policy TiePolicy, seed uint64, iter int, id int32) int32 {
	if len(tied) == 0 {
		return NoChoice
	}
	if len(tied) == 1 {
		return tied[0]
	}
	slices.Sort(tied)
	switch policy {
	case SmallestID:
		return tied[0]
	case LargestID:
		return tied[len(tied)-1]
	case Random:
		k := prand.Hash3(seed, uint64(iter), uint64(uint32(id))) % uint64(len(tied))
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

// Drive runs the merge-stage control loop shared by every engine: iterate
// while hasActive reports an active edge, forcing one SmallestID round
// whenever the Random policy stalls (no merges despite active edges) three
// times in a row so progress is guaranteed. iterate executes one round
// under the effective policy and returns the number of pairs merged. The
// loop checks ctx before every round (including the first) and returns
// the stats so far plus ctx.Err() when the context is done — cancelling
// mid-merge therefore aborts within one iteration. A nil error means the
// merge ran to completion.
//
// Engines differ only in *how* they evaluate an iteration (sequentially,
// on a simulated machine, or fanned out over goroutines); the loop
// semantics — iteration numbering, stall accounting, forced resolutions —
// live here so engines sharing the driver cannot drift apart. MergeAll
// (the sequential kernel) and the native shmengine run on it; dpengine
// and nodeprog still inline the same loop interleaved with their
// simulated-cost accounting and collectives, with the cross-engine
// property tests pinning them to these semantics.
func Drive(ctx context.Context, policy TiePolicy, hasActive func() bool, iterate func(effective TiePolicy, iter int) int) (MergeStats, error) {
	var stats MergeStats
	stalls := 0
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if !hasActive() {
			return stats, nil
		}
		stats.Iterations++
		effective := policy
		if policy == Random && stalls >= 3 {
			effective = SmallestID
			stats.ForcedResolutions++
			stalls = 0
		}
		merged := iterate(effective, stats.Iterations)
		stats.MergesPerIter = append(stats.MergesPerIter, merged)
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
// merge count. It returns per-iteration statistics and the Assignments
// mapping every original vertex ID ever merged into another to its
// surviving representative's ID; on cancellation it returns ctx.Err().
func (g *Graph) MergeAll(ctx context.Context, policy TiePolicy, seed uint64, onRound func(iter, merged int)) (MergeStats, *Assignments, error) {
	asg := NewAssignments()
	stats, err := Drive(ctx, policy,
		g.HasActive,
		func(effective TiePolicy, iter int) int {
			merged := g.MergeIteration(effective, seed, iter, asg)
			if onRound != nil {
				onRound(iter, merged)
			}
			return merged
		})
	return stats, asg, err
}

// MergeIteration executes one round: compute all choices, merge mutual
// pairs, contract. It returns the number of pairs merged and records the
// unions in asg.
//
// The choice pass fills a slot-indexed array in stable slot order; the
// merge pass then contracts each mutual pair exactly once, from the
// endpoint with the smaller region ID. Mutual pairs are pairwise disjoint
// (every region chooses at most one partner), so contracting them as they
// are encountered is order-independent and byte-identical to collecting
// and sorting the pairs first, as the previous map-based kernel did.
func (g *Graph) MergeIteration(policy TiePolicy, seed uint64, iter int, asg *Assignments) int {
	n := len(g.ids)
	if cap(g.choice) < n {
		g.choice = make([]int32, n)
	}
	choice := g.choice[:n]
	tied := g.tied
	for s := 0; s < n; s++ {
		if !g.alive[s] {
			choice[s] = noSlot
			continue
		}
		choice[s], tied = g.slotChoice(int32(s), policy, seed, iter, tied)
	}
	g.tied = tied
	merged := 0
	for s := 0; s < n; s++ {
		c := choice[s]
		if c < 0 || int(choice[c]) != s || g.ids[s] >= g.ids[c] {
			continue
		}
		g.contractSlots(int32(s), c)
		asg.Record(g.ids[c], g.ids[s])
		merged++
	}
	return merged
}

// Contract merges vertex loser=b into keeper=a (a < b by convention: the
// region with the smaller ID becomes the representative). The keeper's
// interval becomes the union; b's neighbours are re-pointed at a; the
// self-edge is dropped; parallel edges coalesce via the sorted adjacency
// lists.
func (g *Graph) Contract(a, b int32) {
	sa, oka := g.slotOf[a]
	sb, okb := g.slotOf[b]
	if !oka || !okb {
		panic(fmt.Sprintf("rag: Contract(%d,%d) on missing vertex", a, b))
	}
	g.contractSlots(sa, sb)
}

func (g *Graph) contractSlots(sa, sb int32) {
	g.lo[sa] = min(g.lo[sa], g.lo[sb])
	g.hi[sa] = max(g.hi[sa], g.hi[sb])
	g.adj[sa] = removeSorted(g.adj[sa], sb)
	for _, n := range g.adj[sb] {
		if n == sa {
			continue
		}
		g.adj[n] = removeSorted(g.adj[n], sb)
		g.adj[n] = insertSorted(g.adj[n], sa)
		g.adj[sa] = insertSorted(g.adj[sa], n)
	}
	g.adj[sb] = nil
	g.alive[sb] = false
	g.nAlive--
	delete(g.slotOf, g.ids[sb]) // dead IDs must miss, so AddEdge/Contract still panic on them
}

// Assignments tracks, over the whole merge stage, which representative each
// original region ended up in. It is a union-find keyed by region ID.
type Assignments struct {
	parent map[int32]int32
}

// NewAssignments returns an empty assignment table.
func NewAssignments() *Assignments { return &Assignments{parent: make(map[int32]int32)} }

// Record notes that region `from` merged into representative `into`.
func (a *Assignments) Record(from, into int32) { a.parent[from] = into }

// Find returns the final representative of region id.
func (a *Assignments) Find(id int32) int32 {
	for {
		p, ok := a.parent[id]
		if !ok {
			return id
		}
		// Path compression: safe because Record only ever adds roots.
		if gp, ok := a.parent[p]; ok {
			a.parent[id] = gp
		}
		id = p
	}
}

// Relabel maps split-stage labels through the assignments, producing the
// final per-pixel segmentation labels. Split labels arrive in long
// horizontal runs, so a last-label fast path keeps most pixels off the
// cache map entirely.
func (a *Assignments) Relabel(labels []int32) []int32 {
	out := make([]int32, len(labels))
	cache := make(map[int32]int32)
	lastLab, lastRoot := NoChoice, NoChoice // labels are pixel indices, never negative
	for i, lab := range labels {
		if lab == lastLab {
			out[i] = lastRoot
			continue
		}
		r, ok := cache[lab]
		if !ok {
			r = a.Find(lab)
			cache[lab] = r
		}
		out[i] = r
		lastLab, lastRoot = lab, r
	}
	return out
}
