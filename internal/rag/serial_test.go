package rag

import (
	"testing"
	"testing/quick"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

func TestMergeSerialChain(t *testing.T) {
	// R equal squares merge in exactly R−1 iterations — the paper's
	// worst-case bound, which for the serial baseline is also the best
	// case.
	for _, n := range []int{2, 5, 9} {
		vals := make([]uint8, n)
		for i := range vals {
			vals[i] = 7
		}
		g := stripesGraph(vals, 0)
		stats, asg := mergeSerial(g)
		if stats.Iterations != n-1 {
			t.Fatalf("n=%d: iterations = %d, want %d", n, stats.Iterations, n-1)
		}
		if g.NumVertices() != 1 {
			t.Fatalf("n=%d: %d vertices remain", n, g.NumVertices())
		}
		for i := 0; i < n; i++ {
			if asg.Find(int32(i)) != 0 {
				t.Fatalf("n=%d: Find(%d) = %d", n, i, asg.Find(int32(i)))
			}
		}
	}
}

func TestMergeSerialPostconditions(t *testing.T) {
	err := quick.Check(func(seed uint64, tRaw uint8) bool {
		im := pixmap.Random(10, seed)
		for i := range im.Pix {
			im.Pix[i] &= 0x1F
		}
		tVal := int(tRaw % 40)
		labels := make([]int32, 100)
		for i := range labels {
			labels[i] = int32(i)
		}
		g := build(im, labels, crit(tVal))
		stats, _ := mergeSerial(g)
		if hasActiveEdge(g) {
			return false
		}
		for _, m := range stats.MergesPerIter {
			if m != 1 {
				return false // serial means exactly one per iteration
			}
		}
		for s := 0; s < g.Slots(); s++ {
			if g.SlotAlive(s) && g.SlotInterval(s).Range() > tVal {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeSerialDeterministic(t *testing.T) {
	im := pixmap.Random(12, 7)
	for i := range im.Pix {
		im.Pix[i] &= 0x1F
	}
	labels := make([]int32, 144)
	for i := range labels {
		labels[i] = int32(i)
	}
	run := func() []int32 {
		g := build(im, labels, crit(12))
		_, asg := mergeSerial(g)
		return asg.Relabel(labels)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("serial merge is not deterministic")
		}
	}
}

func TestMergeSerialNeedsManyMoreIterations(t *testing.T) {
	// The point of the baseline: on a realistic input it needs roughly
	// R−Rt iterations while mutual merging needs closer to log R.
	im := pixmap.New(32, 32)
	im.FillRect(0, 0, 32, 32, 20)
	im.FillRect(5, 5, 27, 27, 90)
	labelsOf := func() ([]int32, *Graph) {
		labels := make([]int32, len(im.Pix))
		for i := range labels {
			labels[i] = int32(i)
		}
		return labels, build(im, labels, homog.NewRange(10))
	}
	_, gSerial := labelsOf()
	serial, _ := mergeSerial(gSerial)
	_, gPar := labelsOf()
	parallel, _ := mergeAll(gPar, Random, 1)
	if serial.Iterations <= parallel.Iterations*5 {
		t.Fatalf("serial %d iterations vs parallel %d: expected a large gap",
			serial.Iterations, parallel.Iterations)
	}
	if serial.TotalMerges() != parallel.TotalMerges() {
		t.Fatalf("total merges differ: %d vs %d (both should reach the same region count)",
			serial.TotalMerges(), parallel.TotalMerges())
	}
}

func TestMergeSerialEmptyGraph(t *testing.T) {
	g := NewGraph(crit(5))
	stats, _ := mergeSerial(g)
	if stats.Iterations != 0 {
		t.Fatal("empty graph merged")
	}
}
