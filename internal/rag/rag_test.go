package rag

import (
	"context"
	"testing"
	"testing/quick"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

// The helpers below run the kernel under a background context, which never
// cancels, so the errors they drop are always nil.

func build(im *pixmap.Image, labels []int32, c homog.Criterion) *Graph {
	g, _ := BuildFromLabels(context.Background(), im, labels, c)
	return g
}

func mergeAll(g *Graph, policy TiePolicy, seed uint64) (MergeStats, *Assignments) {
	stats, asg, _ := g.MergeAll(context.Background(), policy, seed, nil)
	return stats, asg
}

func mergeSerial(g *Graph) (MergeStats, *Assignments) {
	stats, asg, _ := g.MergeSerial(context.Background())
	return stats, asg
}

func crit(t int) homog.Criterion { return homog.NewRange(t) }

func TestBuildFromLabelsSmall(t *testing.T) {
	// 2×2 image, two vertical stripes.
	im, _ := pixmap.FromRows([][]uint8{
		{10, 200},
		{12, 201},
	})
	labels := []int32{0, 1, 0, 1}
	g := build(im, labels, crit(5))
	if g.NumVertices() != 2 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	iv0 := g.IntervalOf(0)
	if iv0.Lo != 10 || iv0.Hi != 12 {
		t.Fatalf("vertex 0 interval %v", iv0)
	}
	if g.Weight(0, 1) != 191 {
		t.Fatalf("weight = %d", g.Weight(0, 1))
	}
	if g.ActiveEdges() != 0 {
		t.Fatal("inhomogeneous edge counted active")
	}
}

func TestAddEdgeSelfIgnored(t *testing.T) {
	g := NewGraph(crit(5))
	g.AddVertex(1, homog.Point(5))
	g.AddEdge(1, 1)
	if g.NumEdges() != 0 {
		t.Fatal("self edge recorded")
	}
}

func TestAddEdgePanicsOnMissingVertex(t *testing.T) {
	g := NewGraph(crit(5))
	g.AddVertex(1, homog.Point(5))
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge with missing endpoint did not panic")
		}
	}()
	g.AddEdge(1, 2)
}

func TestChooseMinWeight(t *testing.T) {
	g := NewGraph(crit(100))
	g.AddVertex(0, homog.Interval{Lo: 50, Hi: 50})
	g.AddVertex(1, homog.Interval{Lo: 60, Hi: 60}) // weight 10
	g.AddVertex(2, homog.Interval{Lo: 55, Hi: 55}) // weight 5
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	if c := g.Choose(0, SmallestID, 0, 1); c != 2 {
		t.Fatalf("choice = %d, want 2 (lowest weight)", c)
	}
}

func TestChooseRespectsCriterion(t *testing.T) {
	g := NewGraph(crit(3))
	g.AddVertex(0, homog.Interval{Lo: 50, Hi: 50})
	g.AddVertex(1, homog.Interval{Lo: 60, Hi: 60})
	g.AddEdge(0, 1)
	if c := g.Choose(0, SmallestID, 0, 1); c != NoChoice {
		t.Fatalf("choice = %d, want NoChoice", c)
	}
}

func TestPickTiedPolicies(t *testing.T) {
	tied := []int32{30, 10, 20}
	if pickTied(append([]int32{}, tied...), SmallestID, 0, 1, 5) != 10 {
		t.Fatal("SmallestID wrong")
	}
	if pickTied(append([]int32{}, tied...), LargestID, 0, 1, 5) != 30 {
		t.Fatal("LargestID wrong")
	}
	got := pickTied(append([]int32{}, tied...), Random, 7, 3, 5)
	if got != 10 && got != 20 && got != 30 {
		t.Fatalf("Random picked non-candidate %d", got)
	}
	// Random is a pure function of (seed, iter, id).
	again := pickTied(append([]int32{}, tied...), Random, 7, 3, 5)
	if got != again {
		t.Fatal("Random tie pick is not deterministic")
	}
	if pickTied(nil, Random, 1, 1, 1) != NoChoice {
		t.Fatal("empty tie set should yield NoChoice")
	}
	if pickTied([]int32{42}, Random, 1, 1, 1) != 42 {
		t.Fatal("singleton tie set wrong")
	}
}

func TestPickTiedRandomVaries(t *testing.T) {
	// Across iterations or choosers, the draw should not be constant.
	tied := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	seen := map[int32]bool{}
	for iter := 1; iter <= 32; iter++ {
		seen[pickTied(append([]int32{}, tied...), Random, 9, iter, 77)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("Random draws hit only %d distinct candidates over 32 iterations", len(seen))
	}
}

func TestContract(t *testing.T) {
	g := NewGraph(crit(100))
	g.AddVertex(0, homog.Interval{Lo: 10, Hi: 20})
	g.AddVertex(1, homog.Interval{Lo: 30, Hi: 40})
	g.AddVertex(2, homog.Interval{Lo: 50, Hi: 60})
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.Contract(0, 1)
	if g.NumVertices() != 2 {
		t.Fatalf("vertices after contract = %d", g.NumVertices())
	}
	iv0 := g.IntervalOf(0)
	if iv0.Lo != 10 || iv0.Hi != 40 {
		t.Fatalf("merged interval %v", iv0)
	}
	if !g.HasEdge(0, 2) {
		t.Fatal("neighbour of loser not inherited")
	}
	if g.Contains(1) {
		t.Fatal("loser still present")
	}
	if g.Degree(2) != 1 {
		t.Fatalf("third party degree = %d, want 1 (still points at loser?)", g.Degree(2))
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges after contract = %d (parallel edge not coalesced?)", g.NumEdges())
	}
}

// TestSlotOfAndNeighbours: slots follow insertion order, neighbour lists
// are ascending slots, and a contracted region has no slot.
func TestSlotOfAndNeighbours(t *testing.T) {
	g := NewGraph(crit(100))
	for _, id := range []int32{30, 10, 20} {
		g.AddVertex(id, homog.Interval{Lo: 5, Hi: 5})
	}
	g.AddEdge(30, 20)
	g.AddEdge(30, 10)
	if s, ok := g.SlotOf(20); !ok || s != 2 {
		t.Fatalf("SlotOf(20) = %d, %v; want 2, true", s, ok)
	}
	if got := g.SlotNeighbours(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("SlotNeighbours(0) = %v, want [1 2]", got)
	}
	g.Contract(10, 30)
	if _, ok := g.SlotOf(30); ok {
		t.Fatal("SlotOf finds a contracted region")
	}
	if got := g.SlotNeighbours(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("keeper's SlotNeighbours = %v, want [2]", got)
	}
}

// buildStripes builds a 1×n image of n distinct single-pixel regions with
// values chosen so everything can merge under T.
func stripesGraph(vals []uint8, t int) *Graph {
	im := pixmap.New(len(vals), 1)
	copy(im.Pix, vals)
	labels := make([]int32, len(vals))
	for i := range labels {
		labels[i] = int32(i)
	}
	return build(im, labels, crit(t))
}

func TestMergeAllChain(t *testing.T) {
	// Four pixels of equal value merge to one region; the exact pairing
	// per iteration depends on tie policy but the result does not.
	for _, policy := range []TiePolicy{SmallestID, LargestID, Random} {
		g := stripesGraph([]uint8{5, 5, 5, 5}, 0)
		stats, asg := mergeAll(g, policy, 3)
		if g.NumVertices() != 1 {
			t.Fatalf("%v: vertices = %d, want 1", policy, g.NumVertices())
		}
		if stats.TotalMerges() != 3 {
			t.Fatalf("%v: merges = %d, want 3", policy, stats.TotalMerges())
		}
		for i := int32(0); i < 4; i++ {
			if asg.Find(i) != 0 {
				t.Fatalf("%v: Find(%d) = %d, want 0", policy, i, asg.Find(i))
			}
		}
	}
}

func TestMergeAllRespectsThreshold(t *testing.T) {
	// 1×4 with values 0, 10, 20, 30 and T=10: chain merges would create
	// ranges over 10, so merging is limited.
	g := stripesGraph([]uint8{0, 10, 20, 30}, 10)
	mergeAll(g, SmallestID, 0)
	// Whatever merged, every surviving vertex is homogeneous and no
	// active edge remains.
	for s := 0; s < g.Slots(); s++ {
		if !g.SlotAlive(s) {
			continue
		}
		if iv := g.SlotInterval(s); iv.Range() > 10 {
			t.Fatalf("vertex %d has range %d", g.SlotID(s), iv.Range())
		}
	}
	if g.ActiveEdges() != 0 {
		t.Fatal("active edges remain after MergeAll")
	}
}

func TestMergeIterationMutualOnly(t *testing.T) {
	// Values 0, 4, 8 with T=8: middle vertex prefers either side (ties at
	// weight 4... actually weight(0,4)=4, weight(4,8)=4: tie). Ends prefer
	// middle. With SmallestID, middle (id 1) picks id 0; id 0 picks id 1:
	// merge (0,1). Vertex 2 picks 1 but 1 picked 0: no merge for 2.
	g := stripesGraph([]uint8{0, 4, 8}, 8)
	asg := NewAssignments()
	merged := g.MergeIteration(SmallestID, 0, 1, asg)
	if merged != 1 {
		t.Fatalf("merged = %d, want 1", merged)
	}
	if !g.Contains(0) {
		t.Fatal("vertex 0 should survive as representative")
	}
	if g.Contains(1) {
		t.Fatal("vertex 1 should be absorbed")
	}
}

func TestMergeTermination(t *testing.T) {
	// Random tie policy on a clique of equal values must terminate.
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%16)
		vals := make([]uint8, n)
		for i := range vals {
			vals[i] = 100
		}
		g := stripesGraph(vals, 0)
		stats, _ := mergeAll(g, Random, seed)
		return g.NumVertices() == 1 && stats.Iterations <= n*4+12
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergePostconditions(t *testing.T) {
	// Property: after MergeAll on any random image's pixel graph, no
	// adjacent pair of surviving vertices can merge.
	err := quick.Check(func(seed uint64, tRaw uint8, policyRaw uint8) bool {
		im := pixmap.Random(12, seed)
		for i := range im.Pix {
			im.Pix[i] &= 0x1F
		}
		tVal := int(tRaw % 40)
		policy := []TiePolicy{SmallestID, LargestID, Random}[policyRaw%3]
		labels := make([]int32, 144)
		for i := range labels {
			labels[i] = int32(i)
		}
		g := build(im, labels, crit(tVal))
		mergeAll(g, policy, seed)
		if g.ActiveEdges() != 0 {
			return false
		}
		for s := 0; s < g.Slots(); s++ {
			if g.SlotAlive(s) && g.SlotInterval(s).Range() > tVal {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentsRelabel(t *testing.T) {
	asg := NewAssignments()
	asg.Record(3, 1)
	asg.Record(1, 0)
	asg.Record(7, 5)
	labels := []int32{0, 1, 2, 3, 5, 7}
	out := asg.Relabel(labels)
	want := []int32{0, 0, 2, 0, 5, 5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Relabel = %v, want %v", out, want)
		}
	}
}

func TestAssignmentsFindChains(t *testing.T) {
	asg := NewAssignments()
	// Chain 5 -> 4 -> 3 -> 0 built over several "iterations".
	asg.Record(5, 4)
	asg.Record(4, 3)
	asg.Record(3, 0)
	if asg.Find(5) != 0 || asg.Find(4) != 0 || asg.Find(3) != 0 || asg.Find(0) != 0 {
		t.Fatal("chain resolution wrong")
	}
	if asg.Find(99) != 99 {
		t.Fatal("unmerged id should map to itself")
	}
}

func TestTiePolicyString(t *testing.T) {
	if SmallestID.String() != "smallest-id" || LargestID.String() != "largest-id" || Random.String() != "random" {
		t.Fatal("policy names wrong")
	}
	if TiePolicy(9).String() == "" {
		t.Fatal("unknown policy should format")
	}
}

func TestSmallestIDNeverStalls(t *testing.T) {
	// Deterministic policies merge at least one pair whenever active
	// edges exist: the globally minimal (weight, ids) edge is mutual.
	err := quick.Check(func(seed uint64) bool {
		im := pixmap.Random(8, seed)
		for i := range im.Pix {
			im.Pix[i] &= 0x0F
		}
		labels := make([]int32, 64)
		for i := range labels {
			labels[i] = int32(i)
		}
		g := build(im, labels, crit(10))
		asg := NewAssignments()
		for iter := 1; g.ActiveEdges() > 0; iter++ {
			if merged := g.MergeIteration(SmallestID, 0, iter, asg); merged == 0 {
				return false
			}
			if iter > 200 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}
