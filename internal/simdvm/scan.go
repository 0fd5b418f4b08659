package simdvm

import "sort"

// Scans, segmented scans, sorting, and stream compaction. On the CM these
// are the library primitives (scan, rank, pack) CM Fortran programs lean
// on; here they execute sequentially or tiled on the host but are charged
// at their parallel cost (log-depth for scans, log²-depth for sort).

// MaxValue reduces to the maximum element. Panics on empty vectors.
func (a *Vec) MaxValue() int32 {
	if len(a.v) == 0 {
		panic("simdvm: MaxValue of empty vec")
	}
	a.m.chargeScan(len(a.v))
	return reduceMax(a.m, a.v)
}

// SegStarts derives the segment-start mask of a vector sorted by segment
// key: start(i) = i==0 ∨ key(i)≠key(i−1).
func (a *Vec) SegStarts() *BoolVec {
	out := a.m.NewBoolVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = i == 0 || a.v[i] != a.v[i-1]
		}
	})
	return out
}

// SegMinBroadcast computes, for every element, the minimum of vals over
// the elements of its segment where mask holds; elements of segments with
// no masked member receive sentinel. Segments are delimited by starts.
// This is a forward segmented min-scan followed by a backward broadcast,
// charged as two scan operations.
func (a *Vec) SegMinBroadcast(starts *BoolVec, mask *BoolVec, sentinel int32) *Vec {
	a.m.sameMachine(starts.m)
	a.m.sameMachine(mask.m)
	checkLen("SegMinBroadcast", len(a.v), len(starts.v))
	checkLen("SegMinBroadcast", len(a.v), len(mask.v))
	out := a.m.NewVec(len(a.v))
	a.m.chargeScan(len(a.v))
	a.m.chargeScan(len(a.v))
	n := len(a.v)
	cur := sentinel
	for i := 0; i < n; i++ {
		if starts.v[i] {
			cur = sentinel
		}
		if mask.v[i] && a.v[i] < cur {
			cur = a.v[i]
		}
		out.v[i] = cur
	}
	// Backward pass: broadcast each segment's total (held at its last
	// element) to the whole segment.
	for i := n - 1; i >= 0; i-- {
		if i+1 < n && !starts.v[i+1] {
			out.v[i] = out.v[i+1]
		}
	}
	return out
}

// SegRankCount returns, for every element, the exclusive count of masked
// elements before it within its segment (rank) and the total masked count
// of its segment (count). Two segmented scans.
func (m *Machine) SegRankCount(starts *BoolVec, mask *BoolVec) (rank, count *Vec) {
	m.sameMachine(starts.m)
	m.sameMachine(mask.m)
	checkLen("SegRankCount", len(starts.v), len(mask.v))
	n := len(starts.v)
	rank = m.NewVec(n)
	count = m.NewVec(n)
	m.chargeScan(n)
	m.chargeScan(n)
	var r int32
	for i := 0; i < n; i++ {
		if starts.v[i] {
			r = 0
		}
		rank.v[i] = r
		if mask.v[i] {
			r++
		}
	}
	cur := int32(0)
	for i := n - 1; i >= 0; i-- {
		if i+1 == n || starts.v[i+1] {
			cur = rank.v[i]
			if mask.v[i] {
				cur++
			}
		}
		count.v[i] = cur
	}
	return rank, count
}

// SortPairs sorts (key1, key2) pairs lexicographically, returning the
// permutation as an index vector: out(i) is the position in the input of
// the i-th smallest pair. Apply it with Gather to reorder companion
// vectors. Charged as one parallel sort (bitonic cost).
func (m *Machine) SortPairs(key1, key2 *Vec) *Vec {
	m.sameMachine(key1.m)
	m.sameMachine(key2.m)
	checkLen("SortPairs", len(key1.v), len(key2.v))
	n := len(key1.v)
	perm := m.NewVec(n)
	for i := range perm.v {
		perm.v[i] = int32(i)
	}
	m.chargeSort(n)
	sort.Slice(perm.v, func(i, j int) bool {
		pi, pj := perm.v[i], perm.v[j]
		if key1.v[pi] != key1.v[pj] {
			return key1.v[pi] < key1.v[pj]
		}
		return key2.v[pi] < key2.v[pj]
	})
	return perm
}

// Pack compacts the elements of each vector in vs selected by mask,
// preserving order — the CM PACK intrinsic. All vectors must have the
// mask's length. It returns the compacted vectors (all of the same,
// possibly zero, length). Charged as an enumerate scan plus one router
// send per vector.
func (m *Machine) Pack(mask *BoolVec, vs ...*Vec) []*Vec {
	m.sameMachine(mask.m)
	n := len(mask.v)
	for _, v := range vs {
		m.sameMachine(v.m)
		checkLen("Pack", n, len(v.v))
	}
	m.chargeScan(n) // enumerate
	total := 0
	pos := make([]int32, n)
	for i, set := range mask.v {
		if set {
			pos[i] = int32(total)
			total++
		}
	}
	out := make([]*Vec, len(vs))
	for k, v := range vs {
		m.chargeRouter(total)
		dst := m.NewVec(total)
		for i, set := range mask.v {
			if set {
				dst.v[pos[i]] = v.v[i]
			}
		}
		out[k] = dst
	}
	return out
}

// PackGrid compacts grid elements selected by a grid mask into vectors,
// in row-major order. Used to convert 2-D boundary masks into the 1-D edge
// arrays of the merge stage.
func (m *Machine) PackGrid(mask *BoolGrid, gs ...*Grid) []*Vec {
	m.sameMachine(mask.m)
	n := len(mask.v)
	for _, g := range gs {
		m.sameMachine(g.m)
		checkLen("PackGrid", n, len(g.v))
	}
	m.chargeScan(n)
	total := 0
	pos := make([]int32, n)
	for i, set := range mask.v {
		if set {
			pos[i] = int32(total)
			total++
		}
	}
	out := make([]*Vec, len(gs))
	for k, g := range gs {
		m.chargeRouter(total)
		dst := m.NewVec(total)
		for i, set := range mask.v {
			if set {
				dst.v[pos[i]] = g.v[i]
			}
		}
		out[k] = dst
	}
	return out
}

// Concat concatenates vectors into a fresh one (front-end array assembly,
// charged elementwise).
func (m *Machine) Concat(vs ...*Vec) *Vec {
	total := 0
	for _, v := range vs {
		m.sameMachine(v.m)
		total += len(v.v)
	}
	out := m.NewVec(total)
	m.chargeElem(total)
	off := 0
	for _, v := range vs {
		copy(out.v[off:off+len(v.v)], v.v)
		off += len(v.v)
	}
	return out
}

// Flatten copies a grid into a 1-D vector in row-major order (a CM array
// reshape; charged elementwise).
func (g *Grid) Flatten() *Vec {
	out := g.m.NewVec(len(g.v))
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) { copy(out.v[lo:hi], g.v[lo:hi]) })
	return out
}

// MaxC returns the elementwise maximum with constant c — used to clamp
// sentinel indices before a Gather.
func (a *Vec) MaxC(c int32) *Vec {
	out := a.m.NewVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if a.v[i] > c {
				out.v[i] = a.v[i]
			} else {
				out.v[i] = c
			}
		}
	})
	return out
}

// AddC returns the vector plus constant c.
func (a *Vec) AddC(c int32) *Vec {
	out := a.m.NewVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = a.v[i] + c
		}
	})
	return out
}

// PairDup returns the mask of positions whose (a, b) pair equals the
// previous position's pair — the duplicate-edge detector run after sorting
// edge arrays.
func (m *Machine) PairDup(a, b *Vec) *BoolVec {
	m.sameMachine(a.m)
	m.sameMachine(b.m)
	checkLen("PairDup", len(a.v), len(b.v))
	out := m.NewBoolVec(len(a.v))
	m.chargeElem(len(a.v))
	m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = i > 0 && a.v[i] == a.v[i-1] && b.v[i] == b.v[i-1]
		}
	})
	return out
}

// PointerJump resolves representative chains in place: rep = rep[rep]
// applied until a fixed point, each round charged as a router gather plus
// a reduction. Classic data-parallel pointer jumping; converges in
// O(log chain length) rounds. It returns the number of rounds executed.
func (a *Vec) PointerJump() int {
	rounds := 0
	for {
		next := a.Gather(a)
		if !a.Ne(next).Any() {
			return rounds
		}
		copy(a.v, next.v)
		rounds++
	}
}
