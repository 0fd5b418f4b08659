package simdvm

import (
	"fmt"
	"runtime"
	"sync"

	"regiongrow/internal/machine"
)

// Machine is the data-parallel execution context: it owns the cost profile,
// the simulated clock, and the goroutine-tiling width.
type Machine struct {
	prof    *machine.Profile
	workers int
	clock   float64
}

// New returns a machine with the given cost profile, tiling work across
// up to GOMAXPROCS goroutines.
func New(prof *machine.Profile) *Machine {
	return &Machine{prof: prof, workers: runtime.GOMAXPROCS(0)}
}

// Profile returns the machine's cost profile.
func (m *Machine) Profile() *machine.Profile { return m.prof }

// Clock returns the simulated seconds elapsed since construction or the
// last ResetClock.
func (m *Machine) Clock() float64 { return m.clock }

// ResetClock zeroes the simulated clock.
func (m *Machine) ResetClock() {
	m.clock = 0
}

func (m *Machine) chargeElem(n int) {
	m.clock += m.prof.ElemOp(n)
}

func (m *Machine) chargeNews(n, dist int) {
	m.clock += m.prof.NewsOp(n, dist)
}

func (m *Machine) chargeRouter(n int) {
	m.clock += m.prof.RouterOp(n)
}

func (m *Machine) chargeScan(n int) {
	m.clock += m.prof.ScanOp(n)
}

func (m *Machine) chargeSort(n int) {
	m.clock += m.prof.SortOp(n)
}

// parTile is the minimum number of elements per operation before the
// machine bothers spinning up goroutines; below this, loop overhead
// dominates and a single goroutine is faster.
const parTile = 8192

// parFor executes f over [0, n) split into contiguous chunks, one per
// worker goroutine. Chunks never overlap, so f may write disjoint slices
// of shared arrays without synchronization.
func (m *Machine) parFor(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := m.workers
	if w <= 1 || n < parTile {
		f(0, n)
		return
	}
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (m *Machine) sameMachine(other *Machine) {
	if m != other {
		panic("simdvm: operands belong to different machines")
	}
}

func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("simdvm: %s: length mismatch %d vs %d", op, a, b))
	}
}
