package simdvm

import (
	"testing"

	"regiongrow/internal/machine"
	"regiongrow/internal/pixmap"
)

// The goroutine-tiled execution paths only engage above parTile elements;
// this file runs every class of operation on 512×512 arrays (256K
// elements) and cross-checks a tiled machine against a serial one.

const bigN = 512

func bigPair() (serial, tiled *Machine, imA, imB *pixmap.Image) {
	return NewSerial(machine.Get(machine.CM2_8K)), New(machine.Get(machine.CM2_8K)),
		pixmap.Random(bigN, 1), pixmap.Random(bigN, 2)
}

func sameData(t *testing.T, what string, a, b []int32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: tiled and serial differ at %d: %d vs %d", what, i, a[i], b[i])
		}
	}
}

func sameBool(t *testing.T, what string, a, b []bool) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: tiled and serial differ at %d", what, i)
		}
	}
}

func TestTiledGridOpsMatchSerial(t *testing.T) {
	ser, par, imA, imB := bigPair()
	run := func(m *Machine) (*Grid, *BoolGrid) {
		a := m.GridFromImage(imA)
		b := m.GridFromImage(imB)
		g := a.Min(b).Add(a.MulC(3)).Sub(b.AddC(7)).Max(a.ModC(13))
		g = g.EOShiftX(-3, 1).EOShiftY(5, -2)
		mask := g.LeC(100).And(a.Ne(b)).Or(b.EqC(0)).AndNot(a.Eq(b))
		g.FillWhere(mask.Not(), 55)
		g2 := g.Clone()
		g2.AssignWhere(mask, a)
		return g2.Add(mask.ToInt()), mask.EOShiftX(2, false).EOShiftY(-1, true)
	}
	gs, ms := run(ser)
	gp, mp := run(par)
	sameData(t, "grid pipeline", gs.Data(), gp.Data())
	sameBool(t, "mask pipeline", ms.Data(), mp.Data())
	if ser.Clock() != par.Clock() {
		t.Fatal("tiled and serial clocks differ")
	}
}

func TestTiledIndexAndGatherMatchSerial(t *testing.T) {
	ser, par, imA, _ := bigPair()
	run := func(m *Machine) *Grid {
		g := m.GridFromImage(imA)
		col := m.ColIndex(bigN, bigN)
		row := m.RowIndex(bigN, bigN)
		self := m.SelfIndex(bigN, bigN)
		ox := col.Sub(col.ModC(16))
		oy := row.Sub(row.ModC(16))
		return g.GatherXY(ox, oy).Add(self.ModC(3))
	}
	sameData(t, "gather pipeline", run(ser).Data(), run(par).Data())
}

func TestTiledVecOpsMatchSerial(t *testing.T) {
	ser, par, imA, imB := bigPair()
	run := func(m *Machine) []int32 {
		v := m.GridFromImage(imA).Flatten()
		w := m.GridFromImage(imB).Flatten()
		keys := v.ModC(257)
		perm := m.SortPairs(keys, m.IotaVec(keys.Len()))
		keys = keys.Gather(perm)
		vals := w.Gather(perm)
		starts := keys.SegStarts()
		mask := vals.LeC(200).And(vals.NeC(13)).Or(keys.EqC(0))
		mins := vals.SegMinBroadcast(starts, mask, 1<<30)
		rank, count := m.SegRankCount(starts, mask)
		out := mins.Add(rank).Add(count.MulC(2)).
			Min(vals.Max(keys)).MaxC(-5).AddC(1)
		packed := m.Pack(mask, out, vals)
		return m.Concat(packed[0], packed[1]).Data()
	}
	sameData(t, "vec pipeline", run(ser), run(par))
}

func TestTiledScatterAndReduceMatchSerial(t *testing.T) {
	ser, par, imA, imB := bigPair()
	run := func(m *Machine) []int32 {
		pix := m.GridFromImage(imA).Flatten()
		labels := m.GridFromImage(imB).Flatten().ModC(1024)
		all := m.NewBoolVec(pix.Len())
		all.Fill(true)
		lo := m.NewVec(pix.Len())
		lo.Fill(1 << 20)
		hi := m.NewVec(pix.Len())
		hi.Fill(-(1 << 20))
		lo.ScatterMinWhere(all, labels, pix)
		hi.ScatterMaxWhere(all, labels, pix)
		return append(m.Concat(lo, hi).Data(), pix.MaxValue(),
			int32(all.Count()), int32(boolToInt(all.Any())))
	}
	sameData(t, "scatter/reduce", run(ser), run(par))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// NewSerial returns a machine that executes without goroutine tiling;
// useful for tests that need deterministic profiling of host behaviour.
func NewSerial(prof *machine.Profile) *Machine {
	return &Machine{prof: prof, workers: 1}
}
