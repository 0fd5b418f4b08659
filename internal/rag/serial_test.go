package rag

import (
	"testing"
	"testing/quick"

	"regiongrow/internal/pixmap"
)

// referenceMergeSerial is the loop MergeSerial must reproduce, over the
// exported slot API and referenceContract: every iteration contracts the
// active edge minimising (weight, smaller ID, larger ID) into its
// smaller-ID endpoint, an edge being active when its weight is at most
// threshold, the graph's. It records its merges in an ID map of its own.
func referenceMergeSerial(g *Graph, threshold int) idMap {
	ref := idMap{}
	for {
		found, bestW, bk, bl := false, 0, 0, 0
		for s := 0; s < g.Slots(); s++ {
			for _, n := range g.SlotNeighbours(s) { // dead slots have none
				k, l := s, int(n)
				if g.SlotID(l) < g.SlotID(k) {
					continue // visit each edge once, from its smaller ID
				}
				wt := g.SlotInterval(k).Union(g.SlotInterval(l)).Range()
				if wt > threshold {
					continue
				}
				if !found || wt < bestW || wt == bestW && less(g.SlotID(k), g.SlotID(l), g.SlotID(bk), g.SlotID(bl)) {
					found, bestW, bk, bl = true, wt, k, l
				}
			}
		}
		if !found {
			return ref
		}
		ref[g.SlotID(bl)] = g.SlotID(bk)
		referenceContract(g, int32(bk), int32(bl))
	}
}

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
		stats := mergeSerial(g)
		if stats.Iterations != n-1 {
			t.Fatalf("n=%d: iterations = %d, want %d", n, stats.Iterations, n-1)
		}
		if g.NumVertices() != 1 {
			t.Fatalf("n=%d: %d vertices remain", n, g.NumVertices())
		}
		ref := referenceMergeSerial(stripesGraph(vals, 0), 0)
		checkRelabel(t, "chain", g, stripes(vals), pixelSquares(stripes(vals)), g.ids, ref)
	}
}

func TestMergeSerialPostconditions(t *testing.T) {
	err := quick.Check(func(seed uint64, tRaw uint8) bool {
		im := pixmap.Random(10, seed)
		for i := range im.Pix {
			im.Pix[i] &= 0x1F
		}
		tVal := int(tRaw % 40)
		g := build(im, pixelLabels(100), tVal)
		stats := mergeSerial(g)
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

// TestMergeSerialDeterministic: two runs resolve every pixel as the
// reference loop does.
func TestMergeSerialDeterministic(t *testing.T) {
	im := pixmap.Random(12, 7)
	for i := range im.Pix {
		im.Pix[i] &= 0x1F
	}
	labels := pixelLabels(144)
	ref := referenceMergeSerial(build(im, labels, 12), 12)
	for run := 0; run < 2; run++ {
		g := build(im, labels, 12)
		mergeSerial(g)
		checkRelabel(t, "serial", g, im, pixelSquares(im), g.ids, ref)
	}
}

func TestMergeSerialNeedsManyMoreIterations(t *testing.T) {
	// The point of the baseline: on a realistic input it needs roughly
	// R−Rt iterations while mutual merging needs closer to log R.
	im := pixmap.New(32, 32)
	im.FillRect(0, 0, 32, 32, 20)
	im.FillRect(5, 5, 27, 27, 90)
	graph := func() *Graph { return build(im, pixelLabels(len(im.Pix)), 10) }
	serial := mergeSerial(graph())
	parallel := mergeAll(graph(), Random, 1)
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
	g := NewGraph(5)
	stats := mergeSerial(g)
	if stats.Iterations != 0 {
		t.Fatal("empty graph merged")
	}
	if labels, regions := g.Relabel(nil, 0, 0); len(labels) != 0 || regions != nil {
		t.Fatalf("empty relabel = %v, %v; want no labels and nil regions", labels, regions)
	}
}
