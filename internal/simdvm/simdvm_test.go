package simdvm

import (
	"testing"
	"testing/quick"

	"regiongrow/internal/machine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
)

func testMachine() *Machine { return New(machine.Get(machine.CM2_8K)) }

func gridFrom(m *Machine, w, h int, vals []int32) *Grid {
	g := m.NewGrid(w, h)
	copy(g.Data(), vals)
	return g
}

func TestGridIndexGrids(t *testing.T) {
	m := testMachine()
	row := m.RowIndex(3, 2)
	col := m.ColIndex(3, 2)
	self := m.SelfIndex(3, 2)
	for y := 0; y < 2; y++ {
		for x := 0; x < 3; x++ {
			if row.At(x, y) != int32(y) || col.At(x, y) != int32(x) || self.At(x, y) != int32(y*3+x) {
				t.Fatalf("index grids wrong at (%d,%d)", x, y)
			}
		}
	}
}

func TestGridFromImage(t *testing.T) {
	m := testMachine()
	im := pixmap.Random(16, 1)
	g := m.GridFromImage(im)
	for i, p := range im.Pix {
		if g.Data()[i] != int32(p) {
			t.Fatalf("pixel %d: %d != %d", i, g.Data()[i], p)
		}
	}
}

func TestGridElementwise(t *testing.T) {
	m := testMachine()
	a := gridFrom(m, 2, 2, []int32{1, 5, 3, 7})
	b := gridFrom(m, 2, 2, []int32{4, 2, 3, 9})
	if got := a.Min(b).Data(); got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 7 {
		t.Fatalf("Min = %v", got)
	}
	if got := a.Max(b).Data(); got[0] != 4 || got[1] != 5 || got[3] != 9 {
		t.Fatalf("Max = %v", got)
	}
	if got := b.Sub(a).Data(); got[0] != 3 || got[1] != -3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Add(b).Data(); got[0] != 5 || got[3] != 16 {
		t.Fatalf("Add = %v", got)
	}
	if got := a.MulC(2).AddC(1).Data(); got[0] != 3 || got[3] != 15 {
		t.Fatalf("MulC/AddC = %v", got)
	}
	if got := a.ModC(3).Data(); got[0] != 1 || got[1] != 2 || got[2] != 0 || got[3] != 1 {
		t.Fatalf("ModC = %v", got)
	}
	eq := a.Eq(b)
	if eq.At(0, 0) || !eq.At(0, 1) {
		t.Fatal("Eq wrong")
	}
	if !a.Ne(b).At(0, 0) {
		t.Fatal("Ne wrong")
	}
	if !a.LeC(3).At(0, 0) || a.LeC(3).At(1, 1) {
		t.Fatal("LeC wrong")
	}
	if !a.EqC(5).At(1, 0) {
		t.Fatal("EqC wrong")
	}
}

func TestGridShifts(t *testing.T) {
	m := testMachine()
	g := gridFrom(m, 3, 2, []int32{1, 2, 3, 4, 5, 6})
	// Shift right by 1: out(x) = in(x-1).
	r := g.EOShiftX(1, -9)
	want := []int32{-9, 1, 2, -9, 4, 5}
	for i := range want {
		if r.Data()[i] != want[i] {
			t.Fatalf("EOShiftX(1) = %v", r.Data())
		}
	}
	// Shift left by 1: out(x) = in(x+1).
	l := g.EOShiftX(-1, -9)
	want = []int32{2, 3, -9, 5, 6, -9}
	for i := range want {
		if l.Data()[i] != want[i] {
			t.Fatalf("EOShiftX(-1) = %v", l.Data())
		}
	}
	d := g.EOShiftY(1, 0)
	want = []int32{0, 0, 0, 1, 2, 3}
	for i := range want {
		if d.Data()[i] != want[i] {
			t.Fatalf("EOShiftY(1) = %v", d.Data())
		}
	}
	u := g.EOShiftY(-1, 0)
	want = []int32{4, 5, 6, 0, 0, 0}
	for i := range want {
		if u.Data()[i] != want[i] {
			t.Fatalf("EOShiftY(-1) = %v", u.Data())
		}
	}
}

func TestGridShiftProperty(t *testing.T) {
	// Shifting by d then by −d restores the interior.
	err := quick.Check(func(seed uint64, dRaw uint8) bool {
		m := testMachine()
		d := 1 + int(dRaw%5)
		im := pixmap.Random(16, seed)
		g := m.GridFromImage(im)
		back := g.EOShiftX(d, 0).EOShiftX(-d, 0)
		for y := 0; y < 16; y++ {
			for x := 0; x < 16-d; x++ {
				if back.At(x, y) != g.At(x, y) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGridGatherXY(t *testing.T) {
	m := testMachine()
	g := gridFrom(m, 2, 2, []int32{10, 20, 30, 40})
	xs := gridFrom(m, 2, 2, []int32{1, 0, 1, 0})
	ys := gridFrom(m, 2, 2, []int32{1, 1, 0, 0})
	out := g.GatherXY(xs, ys)
	want := []int32{40, 30, 20, 10}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("GatherXY = %v", out.Data())
		}
	}
}

func TestGridReductionsAndMasks(t *testing.T) {
	m := testMachine()
	g := gridFrom(m, 2, 2, []int32{3, -1, 7, 2})
	if g.MaxValue() != 7 || g.MinValue() != -1 {
		t.Fatal("grid reductions wrong")
	}
	mask := g.LeC(2)
	if mask.Count() != 2 || !mask.Any() {
		t.Fatalf("Count = %d", mask.Count())
	}
	if mask.Not().Count() != 2 {
		t.Fatal("Not wrong")
	}
	m2 := mask.And(mask.Not())
	if m2.Any() {
		t.Fatal("x && !x must be empty")
	}
	if mask.Or(mask.Not()).Count() != 4 {
		t.Fatal("x || !x must be full")
	}
	if mask.AndNot(mask).Any() {
		t.Fatal("AndNot self must be empty")
	}
	g.FillWhere(mask, 99)
	if g.Data()[1] != 99 || g.Data()[2] != 7 {
		t.Fatalf("FillWhere = %v", g.Data())
	}
	g2 := m.NewGrid(2, 2)
	g2.AssignWhere(mask, g)
	if g2.Data()[1] != 99 || g2.Data()[2] != 0 {
		t.Fatalf("AssignWhere = %v", g2.Data())
	}
	if mask.ToInt().Data()[1] != 1 || mask.ToInt().Data()[2] != 0 {
		t.Fatal("ToInt wrong")
	}
}

func TestBoolGridShifts(t *testing.T) {
	m := testMachine()
	b := m.NewBoolGrid(3, 2)
	b.Data()[0] = true // (0,0)
	r := b.EOShiftX(1, false)
	if !r.At(1, 0) || r.At(0, 0) {
		t.Fatal("bool EOShiftX wrong")
	}
	d := b.EOShiftY(1, true)
	if !d.At(0, 1) || !d.At(0, 0) /* fill row */ {
		t.Fatal("bool EOShiftY wrong")
	}
}

func TestVecBasics(t *testing.T) {
	m := testMachine()
	v := m.VecFromSlice([]int32{5, 3, 8})
	if v.Len() != 3 || v.At(2) != 8 {
		t.Fatal("VecFromSlice wrong")
	}
	iota := m.IotaVec(4)
	if iota.At(0) != 0 || iota.At(3) != 3 {
		t.Fatal("IotaVec wrong")
	}
	c := v.Clone()
	c.Fill(1)
	if v.At(0) != 5 || c.At(0) != 1 {
		t.Fatal("Clone aliases")
	}
	if v.AddC(2).At(1) != 5 || v.MaxC(4).At(1) != 4 {
		t.Fatal("AddC/MaxC wrong")
	}
}

func TestVecGatherScatter(t *testing.T) {
	m := testMachine()
	v := m.VecFromSlice([]int32{10, 20, 30})
	idx := m.VecFromSlice([]int32{2, 0, 1, 2})
	out := v.Gather(idx)
	want := []int32{30, 10, 20, 30}
	for i := range want {
		if out.At(i) != want[i] {
			t.Fatalf("Gather = %v", out.Data())
		}
	}
	dst := m.NewVec(4)
	dst.Fill(-1)
	mask := m.NewBoolVec(3)
	mask.Data()[0], mask.Data()[2] = true, true
	dst.ScatterWhere(mask, m.VecFromSlice([]int32{3, 1, 0}), v)
	if dst.At(3) != 10 || dst.At(0) != 30 || dst.At(1) != -1 {
		t.Fatalf("ScatterWhere = %v", dst.Data())
	}
}

func TestScatterCombining(t *testing.T) {
	m := testMachine()
	lo := m.NewVec(2)
	lo.Fill(1 << 20)
	hi := m.NewVec(2)
	hi.Fill(-(1 << 20))
	idx := m.VecFromSlice([]int32{0, 0, 1, 0})
	vals := m.VecFromSlice([]int32{5, 3, 9, 4})
	all := m.NewBoolVec(4)
	all.Fill(true)
	lo.ScatterMinWhere(all, idx, vals)
	hi.ScatterMaxWhere(all, idx, vals)
	if lo.At(0) != 3 || lo.At(1) != 9 {
		t.Fatalf("ScatterMin = %v", lo.Data())
	}
	if hi.At(0) != 5 || hi.At(1) != 9 {
		t.Fatalf("ScatterMax = %v", hi.Data())
	}
}

func TestMaxValue(t *testing.T) {
	m := testMachine()
	v := m.VecFromSlice([]int32{3, 1, 4, 1, 5})
	if v.MaxValue() != 5 {
		t.Fatal("Max wrong")
	}
}

func TestSegmentedOps(t *testing.T) {
	m := testMachine()
	// Segments by key: [7,7,7 | 9,9 | 4]
	keys := m.VecFromSlice([]int32{7, 7, 7, 9, 9, 4})
	starts := keys.SegStarts()
	wantStart := []bool{true, false, false, true, false, true}
	for i := range wantStart {
		if starts.At(i) != wantStart[i] {
			t.Fatalf("SegStarts = %v", starts.Data())
		}
	}
	vals := m.VecFromSlice([]int32{5, 2, 8, 1, 3, 6})
	mask := m.NewBoolVec(6)
	for i := range mask.Data() {
		mask.Data()[i] = true
	}
	mask.Data()[3] = false // exclude the 1
	mins := vals.SegMinBroadcast(starts, mask, 1<<20)
	wantMin := []int32{2, 2, 2, 3, 3, 6}
	for i := range wantMin {
		if mins.At(i) != wantMin[i] {
			t.Fatalf("SegMinBroadcast = %v", mins.Data())
		}
	}
	rank, count := m.SegRankCount(starts, mask)
	wantRank := []int32{0, 1, 2, 0, 0, 0}
	wantCount := []int32{3, 3, 3, 1, 1, 1}
	for i := range wantRank {
		if rank.At(i) != wantRank[i] || count.At(i) != wantCount[i] {
			t.Fatalf("rank=%v count=%v", rank.Data(), count.Data())
		}
	}
}

func TestSegmentedOpsEmptySegment(t *testing.T) {
	m := testMachine()
	keys := m.VecFromSlice([]int32{1, 2})
	starts := keys.SegStarts()
	vals := m.VecFromSlice([]int32{5, 7})
	mask := m.NewBoolVec(2) // nothing masked
	mins := vals.SegMinBroadcast(starts, mask, 99)
	if mins.At(0) != 99 || mins.At(1) != 99 {
		t.Fatalf("empty segments should yield sentinel: %v", mins.Data())
	}
}

func TestSortPairsAndPack(t *testing.T) {
	m := testMachine()
	a := m.VecFromSlice([]int32{3, 1, 3, 1})
	b := m.VecFromSlice([]int32{0, 9, 2, 1})
	perm := m.SortPairs(a, b)
	sa, sb := a.Gather(perm), b.Gather(perm)
	wantA := []int32{1, 1, 3, 3}
	wantB := []int32{1, 9, 0, 2}
	for i := range wantA {
		if sa.At(i) != wantA[i] || sb.At(i) != wantB[i] {
			t.Fatalf("sorted = %v / %v", sa.Data(), sb.Data())
		}
	}
	dup := m.PairDup(m.VecFromSlice([]int32{1, 1, 2, 2}), m.VecFromSlice([]int32{5, 5, 5, 6}))
	wantDup := []bool{false, true, false, false}
	for i := range wantDup {
		if dup.At(i) != wantDup[i] {
			t.Fatalf("PairDup = %v", dup.Data())
		}
	}
	mask := m.NewBoolVec(4)
	mask.Data()[1], mask.Data()[3] = true, true
	packed := m.Pack(mask, sa, sb)
	if packed[0].Len() != 2 || packed[0].At(0) != 1 || packed[1].At(1) != 2 {
		t.Fatalf("Pack = %v / %v", packed[0].Data(), packed[1].Data())
	}
}

func TestSortPairsProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		m := testMachine()
		n := 1 + int(nRaw%40)
		g := prand.New(seed)
		av := make([]int32, n)
		bv := make([]int32, n)
		for i := range av {
			av[i] = int32(g.Intn(8))
			bv[i] = int32(g.Intn(8))
		}
		a, b := m.VecFromSlice(av), m.VecFromSlice(bv)
		perm := m.SortPairs(a, b)
		sa, sb := a.Gather(perm), b.Gather(perm)
		// Sorted lexicographically and a permutation of the input.
		seen := make(map[int32]bool, n)
		for i := 0; i < n; i++ {
			if seen[perm.At(i)] {
				return false
			}
			seen[perm.At(i)] = true
			if i > 0 {
				if sa.At(i) < sa.At(i-1) {
					return false
				}
				if sa.At(i) == sa.At(i-1) && sb.At(i) < sb.At(i-1) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackGrid(t *testing.T) {
	m := testMachine()
	g := gridFrom(m, 2, 2, []int32{10, 20, 30, 40})
	mask := m.NewBoolGrid(2, 2)
	mask.Data()[0], mask.Data()[3] = true, true
	out := m.PackGrid(mask, g)
	if out[0].Len() != 2 || out[0].At(0) != 10 || out[0].At(1) != 40 {
		t.Fatalf("PackGrid = %v", out[0].Data())
	}
}

func TestConcat(t *testing.T) {
	m := testMachine()
	out := m.Concat(m.VecFromSlice([]int32{1, 2}), m.VecFromSlice([]int32{3}), m.NewVec(0))
	if out.Len() != 3 || out.At(2) != 3 {
		t.Fatalf("Concat = %v", out.Data())
	}
}

func TestPointerJump(t *testing.T) {
	m := testMachine()
	// Chain: 4→3→2→0, 1→0.
	rep := m.VecFromSlice([]int32{0, 0, 0, 2, 3})
	rounds := rep.PointerJump()
	for i := 0; i < 5; i++ {
		if rep.At(i) != 0 {
			t.Fatalf("PointerJump = %v", rep.Data())
		}
	}
	if rounds == 0 {
		t.Fatal("expected at least one round")
	}
}

func TestHashChoiceMatchesPrand(t *testing.T) {
	m := testMachine()
	ids := m.VecFromSlice([]int32{5, 9, 100})
	mods := m.VecFromSlice([]int32{3, 0, 7})
	out := ids.HashChoice(11, 4, mods)
	if out.At(0) != int32(prand.Hash3(11, 4, 5)%3) {
		t.Fatal("HashChoice mismatch with prand.Hash3")
	}
	if out.At(1) != 0 {
		t.Fatal("mod 0 should yield 0")
	}
	if out.At(2) != int32(prand.Hash3(11, 4, 100)%7) {
		t.Fatal("HashChoice mismatch")
	}
}

func TestClock(t *testing.T) {
	m := testMachine()
	if m.Clock() != 0 {
		t.Fatal("fresh machine clock not zero")
	}
	g := m.NewGrid(8, 8)
	g.Fill(1)
	g.EOShiftX(2, 0)
	g.Flatten().MaxValue()
	if m.Clock() <= 0 {
		t.Fatal("clock did not advance")
	}
	m.ResetClock()
	if m.Clock() != 0 {
		t.Fatal("ResetClock incomplete")
	}
}

func TestCrossMachinePanics(t *testing.T) {
	m1, m2 := testMachine(), testMachine()
	a := m1.NewGrid(2, 2)
	b := m2.NewGrid(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-machine op did not panic")
		}
	}()
	a.Min(b)
}

func TestLengthMismatchPanics(t *testing.T) {
	m := testMachine()
	a := m.NewVec(3)
	b := m.NewVec(4)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	a.Add(b)
}

func TestSerialAndParallelAgree(t *testing.T) {
	// The same program on a serial machine and a tiled machine must
	// produce identical data and identical simulated clocks.
	run := func(m *Machine) ([]int32, float64) {
		im := pixmap.Random(64, 9)
		g := m.GridFromImage(im)
		s := g.EOShiftX(-1, 0).Min(g).EOShiftY(2, 5).Max(g)
		v := s.Flatten()
		perm := m.SortPairs(v, m.IotaVec(v.Len()))
		return v.Gather(perm).Data(), m.Clock()
	}
	d1, c1 := run(NewSerial(machine.Get(machine.CM2_8K)))
	d2, c2 := run(New(machine.Get(machine.CM2_8K)))
	if c1 != c2 {
		t.Fatalf("clocks differ: %v vs %v", c1, c2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("serial and tiled execution differ")
		}
	}
}

// VecFromSlice loads front-end data into a fresh vector.
func (m *Machine) VecFromSlice(data []int32) *Vec {
	out := m.NewVec(len(data))
	m.chargeElem(len(data))
	m.parFor(len(data), func(lo, hi int) { copy(out.v[lo:hi], data[lo:hi]) })
	return out
}

// MinValue reduces the grid to its minimum element (MINVAL).
func (g *Grid) MinValue() int32 {
	if len(g.v) == 0 {
		panic("simdvm: MinValue of empty grid")
	}
	g.m.chargeScan(len(g.v))
	return reduceMin(g.m, g.v)
}

// reduceMin is reduceMax for the minimum.
func reduceMin(m *Machine, v []int32) int32 {
	parts := make(chan int32, m.workers+1)
	var issued int
	m.parForCollect32(len(v), &issued, parts, func(lo, hi int) int32 {
		best := v[lo]
		for i := lo + 1; i < hi; i++ {
			if v[i] < best {
				best = v[i]
			}
		}
		return best
	})
	best := <-parts
	for i := 1; i < issued; i++ {
		if p := <-parts; p < best {
			best = p
		}
	}
	return best
}
