package simdvm

import "regiongrow/internal/prand"

// Vec is a one-dimensional parallel array of int32 — the representation the
// paper uses for graph vertices and edges ("one-dimensional arrays were
// used to store information about the vertices and edges").
type Vec struct {
	m *Machine
	v []int32
}

// BoolVec is a one-dimensional parallel mask.
type BoolVec struct {
	m *Machine
	v []bool
}

// NewVec allocates a zeroed vector of length n.
func (m *Machine) NewVec(n int) *Vec { return &Vec{m: m, v: make([]int32, n)} }

// NewBoolVec allocates a false mask of length n.
func (m *Machine) NewBoolVec(n int) *BoolVec { return &BoolVec{m: m, v: make([]bool, n)} }

// IotaVec returns [0, 1, ..., n−1].
func (m *Machine) IotaVec(n int) *Vec {
	out := m.NewVec(n)
	m.chargeElem(n)
	m.parFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = int32(i)
		}
	})
	return out
}

// Len returns the vector length.
func (a *Vec) Len() int { return len(a.v) }

// At reads one element from the front end.
func (a *Vec) At(i int) int32 { return a.v[i] }

// Data exposes the backing slice for front-end extraction.
func (a *Vec) Data() []int32 { return a.v }

// Clone returns a copy.
func (a *Vec) Clone() *Vec {
	out := a.m.NewVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) { copy(out.v[lo:hi], a.v[lo:hi]) })
	return out
}

// Fill sets every element to c.
func (a *Vec) Fill(c int32) {
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.v[i] = c
		}
	})
}

// FillWhere sets elements to c where mask holds.
func (a *Vec) FillWhere(mask *BoolVec, c int32) {
	a.m.sameMachine(mask.m)
	checkLen("FillWhere", len(a.v), len(mask.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if mask.v[i] {
				a.v[i] = c
			}
		}
	})
}

// AssignWhere copies src where mask holds.
func (a *Vec) AssignWhere(mask *BoolVec, src *Vec) {
	a.m.sameMachine(mask.m)
	a.m.sameMachine(src.m)
	checkLen("AssignWhere", len(a.v), len(mask.v))
	checkLen("AssignWhere", len(a.v), len(src.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if mask.v[i] {
				a.v[i] = src.v[i]
			}
		}
	})
}

func (a *Vec) binOp(op string, other *Vec, f func(x, y int32) int32) *Vec {
	a.m.sameMachine(other.m)
	checkLen(op, len(a.v), len(other.v))
	out := a.m.NewVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = f(a.v[i], other.v[i])
		}
	})
	return out
}

// Min returns the elementwise minimum.
func (a *Vec) Min(other *Vec) *Vec {
	return a.binOp("Min", other, func(x, y int32) int32 {
		if x < y {
			return x
		}
		return y
	})
}

// Max returns the elementwise maximum.
func (a *Vec) Max(other *Vec) *Vec {
	return a.binOp("Max", other, func(x, y int32) int32 {
		if x > y {
			return x
		}
		return y
	})
}

// Sub returns the elementwise difference a − other.
func (a *Vec) Sub(other *Vec) *Vec {
	return a.binOp("Sub", other, func(x, y int32) int32 { return x - y })
}

// Add returns the elementwise sum.
func (a *Vec) Add(other *Vec) *Vec {
	return a.binOp("Add", other, func(x, y int32) int32 { return x + y })
}

func (a *Vec) cmpOp(op string, other *Vec, f func(x, y int32) bool) *BoolVec {
	a.m.sameMachine(other.m)
	checkLen(op, len(a.v), len(other.v))
	out := a.m.NewBoolVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = f(a.v[i], other.v[i])
		}
	})
	return out
}

// Eq returns the elementwise equality mask.
func (a *Vec) Eq(other *Vec) *BoolVec {
	return a.cmpOp("Eq", other, func(x, y int32) bool { return x == y })
}

// Ne returns the elementwise inequality mask.
func (a *Vec) Ne(other *Vec) *BoolVec {
	return a.cmpOp("Ne", other, func(x, y int32) bool { return x != y })
}

// Lt returns the elementwise less-than mask.
func (a *Vec) Lt(other *Vec) *BoolVec {
	return a.cmpOp("Lt", other, func(x, y int32) bool { return x < y })
}

// EqC returns the mask of elements equal to c.
func (a *Vec) EqC(c int32) *BoolVec {
	out := a.m.NewBoolVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = a.v[i] == c
		}
	})
	return out
}

// NeC returns the mask of elements not equal to c.
func (a *Vec) NeC(c int32) *BoolVec {
	out := a.m.NewBoolVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = a.v[i] != c
		}
	})
	return out
}

// LeC returns the mask of elements ≤ c.
func (a *Vec) LeC(c int32) *BoolVec {
	out := a.m.NewBoolVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = a.v[i] <= c
		}
	})
	return out
}

// MulC returns the vector scaled by constant c.
func (a *Vec) MulC(c int32) *Vec {
	out := a.m.NewVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = a.v[i] * c
		}
	})
	return out
}

// ModC returns the vector modulo constant c (c > 0).
func (a *Vec) ModC(c int32) *Vec {
	if c <= 0 {
		panic("simdvm: Vec.ModC with non-positive modulus")
	}
	out := a.m.NewVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = a.v[i] % c
		}
	})
	return out
}

// Gather performs a router get: out(i) = a(idx(i)). Indices must be in
// range.
func (a *Vec) Gather(idx *Vec) *Vec {
	a.m.sameMachine(idx.m)
	out := a.m.NewVec(len(idx.v))
	a.m.chargeRouter(len(idx.v))
	a.m.parFor(len(idx.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = a.v[idx.v[i]]
		}
	})
	return out
}

// ScatterWhere performs a router send: for each i with mask(i),
// a(idx(i)) = vals(i). Destinations must be distinct where mask holds
// (no-collision contract; use ScatterMin/ScatterMax for combining sends).
func (a *Vec) ScatterWhere(mask *BoolVec, idx, vals *Vec) {
	a.m.sameMachine(mask.m)
	a.m.sameMachine(idx.m)
	a.m.sameMachine(vals.m)
	checkLen("ScatterWhere", len(idx.v), len(vals.v))
	checkLen("ScatterWhere", len(idx.v), len(mask.v))
	a.m.chargeRouter(len(idx.v))
	// Collision-free by contract, so tiles write disjoint destinations;
	// run serially anyway: scattered writes gain little from tiling.
	for i := range idx.v {
		if mask.v[i] {
			a.v[idx.v[i]] = vals.v[i]
		}
	}
}

// ScatterMinWhere performs a combining router send with minimum:
// a(idx(i)) = min(a(idx(i)), vals(i)) for each i with mask(i). The CM-2
// router supported combining sends in hardware.
func (a *Vec) ScatterMinWhere(mask *BoolVec, idx, vals *Vec) {
	a.m.sameMachine(mask.m)
	a.m.sameMachine(idx.m)
	a.m.sameMachine(vals.m)
	checkLen("ScatterMinWhere", len(idx.v), len(vals.v))
	checkLen("ScatterMinWhere", len(idx.v), len(mask.v))
	a.m.chargeRouter(len(idx.v))
	for i := range idx.v {
		if mask.v[i] && vals.v[i] < a.v[idx.v[i]] {
			a.v[idx.v[i]] = vals.v[i]
		}
	}
}

// ScatterMaxWhere is ScatterMinWhere with maximum combining.
func (a *Vec) ScatterMaxWhere(mask *BoolVec, idx, vals *Vec) {
	a.m.sameMachine(mask.m)
	a.m.sameMachine(idx.m)
	a.m.sameMachine(vals.m)
	checkLen("ScatterMaxWhere", len(idx.v), len(vals.v))
	checkLen("ScatterMaxWhere", len(idx.v), len(mask.v))
	a.m.chargeRouter(len(idx.v))
	for i := range idx.v {
		if mask.v[i] && vals.v[i] > a.v[idx.v[i]] {
			a.v[idx.v[i]] = vals.v[i]
		}
	}
}

// HashChoice computes, elementwise, Hash3(seed, iter, a(i)) mod mod(i) —
// the per-region pseudo-random draw of the Random tie policy, evaluated on
// every virtual processor at once. Elements where mod(i) ≤ 0 yield 0.
func (a *Vec) HashChoice(seed uint64, iter int, mod *Vec) *Vec {
	a.m.sameMachine(mod.m)
	checkLen("HashChoice", len(a.v), len(mod.v))
	out := a.m.NewVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if mod.v[i] > 0 {
				out.v[i] = int32(prand.Hash3(seed, uint64(iter), uint64(uint32(a.v[i]))) % uint64(mod.v[i]))
			}
		}
	})
	return out
}

// BoolVec operations.

// Len returns the mask length.
func (b *BoolVec) Len() int { return len(b.v) }

// At reads one element from the front end.
func (b *BoolVec) At(i int) bool { return b.v[i] }

// Data exposes the backing slice.
func (b *BoolVec) Data() []bool { return b.v }

func (b *BoolVec) binOp(op string, other *BoolVec, f func(x, y bool) bool) *BoolVec {
	b.m.sameMachine(other.m)
	checkLen(op, len(b.v), len(other.v))
	out := b.m.NewBoolVec(len(b.v))
	b.m.chargeElem(len(b.v))
	b.m.parFor(len(b.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = f(b.v[i], other.v[i])
		}
	})
	return out
}

// And returns the elementwise conjunction.
func (b *BoolVec) And(other *BoolVec) *BoolVec {
	return b.binOp("And", other, func(x, y bool) bool { return x && y })
}

// Or returns the elementwise disjunction.
func (b *BoolVec) Or(other *BoolVec) *BoolVec {
	return b.binOp("Or", other, func(x, y bool) bool { return x || y })
}

// AndNot returns x ∧ ¬y.
func (b *BoolVec) AndNot(other *BoolVec) *BoolVec {
	return b.binOp("AndNot", other, func(x, y bool) bool { return x && !y })
}

// Not returns the negation.
func (b *BoolVec) Not() *BoolVec {
	out := b.m.NewBoolVec(len(b.v))
	b.m.chargeElem(len(b.v))
	b.m.parFor(len(b.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = !b.v[i]
		}
	})
	return out
}

// Fill sets every mask element to c.
func (b *BoolVec) Fill(c bool) {
	b.m.chargeElem(len(b.v))
	b.m.parFor(len(b.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b.v[i] = c
		}
	})
}

// Count reduces the mask to its number of true elements.
func (b *BoolVec) Count() int {
	b.m.chargeScan(len(b.v))
	parts := make(chan int, b.m.workers+1)
	var issued int
	b.m.parForCollect(len(b.v), &issued, parts, func(lo, hi int) int {
		n := 0
		for i := lo; i < hi; i++ {
			if b.v[i] {
				n++
			}
		}
		return n
	})
	total := 0
	for i := 0; i < issued; i++ {
		total += <-parts
	}
	return total
}

// Any reduces the mask to whether any element is set.
func (b *BoolVec) Any() bool { return b.Count() > 0 }
