package rag

import (
	"context"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/quadsplit"
)

// The helpers below run the kernel under a background context, which never
// cancels, so the errors they drop are always nil.

func build(im *pixmap.Image, labels []int32, threshold int) *Graph {
	g, _ := BuildFromLabels(context.Background(), im, labels, threshold)
	return g
}

func mergeAll(g *Graph, policy TiePolicy, seed uint64) MergeStats {
	stats, _ := g.MergeAll(context.Background(), policy, seed, nil)
	return stats
}

func mergeSerial(g *Graph) MergeStats {
	stats, _ := g.MergeSerial(context.Background())
	return stats
}

// liveSlot returns the live slot holding region id, if any. The graph
// has no lookup by ID, so it scans the arena.
func liveSlot(g *Graph, id int32) (int, bool) {
	for s := 0; s < g.Slots(); s++ {
		if g.SlotAlive(s) && g.SlotID(s) == id {
			return s, true
		}
	}
	return -1, false
}

// slotOf is liveSlot for a region the test knows is live.
func slotOf(t *testing.T, g *Graph, id int32) int {
	t.Helper()
	s, ok := liveSlot(g, id)
	if !ok {
		t.Fatalf("region %d is not in the graph", id)
	}
	return s
}

// contains reports whether region id is live in g.
func contains(g *Graph, id int32) bool {
	_, ok := liveSlot(g, id)
	return ok
}

// numEdges counts the graph's undirected edges; dead slots hold none.
func numEdges(g *Graph) int {
	total := 0
	for s := 0; s < g.Slots(); s++ {
		total += len(g.SlotNeighbours(s))
	}
	return total / 2
}

// hasActiveEdge reports whether any slot has an active edge: a slot has
// a choice exactly when it has one, and dead slots have no edges.
func hasActiveEdge(g *Graph) bool {
	for s := 0; s < g.Slots(); s++ {
		if c, _ := g.SlotChoice(s, SmallestID, 0, 0, nil); c >= 0 {
			return true
		}
	}
	return false
}

// choiceOf is the merge choice of live region id as a region ID, or
// noSlot.
func choiceOf(t *testing.T, g *Graph, id int32, policy TiePolicy, seed uint64, iter int) int32 {
	t.Helper()
	c, _ := g.SlotChoice(slotOf(t, g, id), policy, seed, iter, nil)
	if c < 0 {
		return noSlot
	}
	return g.SlotID(c)
}

func TestBuildFromLabelsSmall(t *testing.T) {
	// 2×2 image, two vertical stripes.
	im, _ := pixmap.FromRows([][]uint8{
		{10, 200},
		{12, 201},
	})
	labels := []int32{0, 1, 0, 1}
	g := build(im, labels, 5)
	if g.NumVertices() != 2 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if numEdges(g) != 1 {
		t.Fatalf("edges = %d", numEdges(g))
	}
	iv0 := g.SlotInterval(slotOf(t, g, 0))
	if iv0.Lo != 10 || iv0.Hi != 12 {
		t.Fatalf("vertex 0 interval %v", iv0)
	}
	if w := g.SlotInterval(slotOf(t, g, 0)).Union(g.SlotInterval(slotOf(t, g, 1))).Range(); w != 191 {
		t.Fatalf("weight = %d", w)
	}
	if hasActiveEdge(g) {
		t.Fatal("inhomogeneous edge counted active")
	}
}

func TestAddEdgeSelfIgnored(t *testing.T) {
	g := NewGraph(5)
	s := g.AddVertex(1, homog.Point(5))
	g.AddEdge(s, s)
	if numEdges(g) != 0 {
		t.Fatal("self edge recorded")
	}
}

// ragPanic fails t unless f panics with a message of rag's own.
func ragPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.HasPrefix(msg, "rag: ") {
			t.Fatalf("panic %v, want a rag message", r)
		}
	}()
	f()
}

// TestAddEdgePanicsOnMissingVertex: an edge to a slot that was contracted
// away, or that the graph never held, panics with rag's message.
func TestAddEdgePanicsOnMissingVertex(t *testing.T) {
	g := NewGraph(5)
	a := g.AddVertex(1, homog.Point(5))
	b := g.AddVertex(2, homog.Point(5))
	c := g.AddVertex(3, homog.Point(5))
	g.AddEdge(a, b)
	g.ContractSlots(int(a), int(b))
	for _, s := range []int32{b, 3, -1} {
		ragPanic(t, func() { g.AddEdge(c, s) })
	}
}

// TestRelabelRejectsForeignLabel: a square that is not a slot of the
// graph panics with rag's message, never a bare index panic.
func TestRelabelRejectsForeignLabel(t *testing.T) {
	g := NewGraph(5)
	g.AddVertex(0, homog.Point(5))
	g.AddVertex(1, homog.Point(5))
	squares := pixelSquares(stripes([]uint8{5, 5, 5}))
	ragPanic(t, func() { g.Relabel(squares, 3, 1) })
}

func TestChooseMinWeight(t *testing.T) {
	g := NewGraph(100)
	g.AddVertex(0, homog.Interval{Lo: 50, Hi: 50})
	g.AddVertex(1, homog.Interval{Lo: 60, Hi: 60}) // weight 10
	g.AddVertex(2, homog.Interval{Lo: 55, Hi: 55}) // weight 5
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	if c := choiceOf(t, g, 0, SmallestID, 0, 1); c != 2 {
		t.Fatalf("choice = %d, want 2 (lowest weight)", c)
	}
}

// TestChooseRespectsCriterion: SlotChoice sees an edge of weight exactly
// T and no edge of weight T+1, and an edge between two empty intervals
// has weight 0, so it is active under every T. Weight T+1 has no uint8
// interval once T ≥ 255, where weight 255 must be active.
func TestChooseRespectsCriterion(t *testing.T) {
	type row struct {
		threshold int
		a, b      homog.Interval
		active    bool
	}
	rows := []row{
		{3, homog.Point(50), homog.Point(60), false},
		{3, homog.Point(50), homog.Point(53), true},
	}
	for _, threshold := range []int{0, 1, 254, 255, 300} {
		rows = append(rows,
			row{threshold, homog.Point(0), homog.Interval{Lo: 0, Hi: uint8(min(threshold, 255))}, true},
			row{threshold, homog.Empty(), homog.Empty(), true})
		if threshold < 255 {
			rows = append(rows, row{threshold, homog.Point(0), homog.Point(uint8(threshold + 1)), false})
		}
	}
	for _, r := range rows {
		g := NewGraph(r.threshold)
		g.AddVertex(0, r.a)
		g.AddVertex(1, r.b)
		g.AddEdge(0, 1)
		want := noSlot
		if r.active {
			want = 1
		}
		if got := choiceOf(t, g, 0, SmallestID, 0, 1); got != want {
			t.Errorf("T=%d, %v and %v: choice = %d, want %d", r.threshold, r.a, r.b, got, want)
		}
	}
}

// round is the pick's round hash for (seed, iter).
func round(seed uint64, iter int) uint64 { return prand.Hash2(seed, uint64(iter)) }

func TestPickTiedPolicies(t *testing.T) {
	tied := []int32{10, 20, 30} // candidates arrive in ascending ID order
	if pickTied(append([]int32{}, tied...), SmallestID, round(0, 1), 5) != 10 {
		t.Fatal("SmallestID wrong")
	}
	if pickTied(append([]int32{}, tied...), LargestID, round(0, 1), 5) != 30 {
		t.Fatal("LargestID wrong")
	}
	got := pickTied(append([]int32{}, tied...), Random, round(7, 3), 5)
	if got != 10 && got != 20 && got != 30 {
		t.Fatalf("Random picked non-candidate %d", got)
	}
	// Random is a pure function of (seed, iter, id).
	again := pickTied(append([]int32{}, tied...), Random, round(7, 3), 5)
	if got != again {
		t.Fatal("Random tie pick is not deterministic")
	}
	if pickTied([]int32{42}, Random, round(1, 1), 1) != 42 {
		t.Fatal("singleton tie set wrong")
	}
}

// TestPickTiedUnknownPolicyPanics: an unknown policy is a bug, never a
// silent fall-through to one of the real policies.
func TestPickTiedUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pickTied under TiePolicy(7) did not panic")
		}
	}()
	pickTied([]int32{10, 20}, TiePolicy(7), round(1, 1), 5)
}

func TestPickTiedRandomVaries(t *testing.T) {
	// Across iterations or choosers, the draw should not be constant.
	tied := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	seen := map[int32]bool{}
	for iter := 1; iter <= 32; iter++ {
		seen[pickTied(append([]int32{}, tied...), Random, round(9, iter), 77)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("Random draws hit only %d distinct candidates over 32 iterations", len(seen))
	}
}

func TestContract(t *testing.T) {
	g := NewGraph(100)
	g.AddVertex(0, homog.Interval{Lo: 10, Hi: 20})
	g.AddVertex(1, homog.Interval{Lo: 30, Hi: 40})
	g.AddVertex(2, homog.Interval{Lo: 50, Hi: 60})
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.ContractSlots(slotOf(t, g, 0), slotOf(t, g, 1))
	if g.NumVertices() != 2 {
		t.Fatalf("vertices after contract = %d", g.NumVertices())
	}
	iv0 := g.SlotInterval(slotOf(t, g, 0))
	if iv0.Lo != 10 || iv0.Hi != 40 {
		t.Fatalf("merged interval %v", iv0)
	}
	if !slices.Contains(g.SlotNeighbours(slotOf(t, g, 0)), int32(slotOf(t, g, 2))) {
		t.Fatal("neighbour of loser not inherited")
	}
	if contains(g, 1) {
		t.Fatal("loser still present")
	}
	if d := len(g.SlotNeighbours(slotOf(t, g, 2))); d != 1 {
		t.Fatalf("third party degree = %d, want 1 (still points at loser?)", d)
	}
	if numEdges(g) != 1 {
		t.Fatalf("edges after contract = %d (parallel edge not coalesced?)", numEdges(g))
	}
	if g.RootSlot(1) != 0 || g.RootSlot(2) != 2 {
		t.Fatalf("RootSlot: loser → %d, bystander → %d; want 0 and 2 (contraction not recorded?)", g.RootSlot(1), g.RootSlot(2))
	}
}

// TestContractSlotsRecordsChains: ContractSlots, the node program's only
// contraction entry, starts the contraction record on its first call and
// not before, and RootSlot follows a chain of contractions made over
// several calls to the live region at its end, through a vertex added
// after the record started, as a node adds a ghost representative in a
// later round.
func TestContractSlotsRecordsChains(t *testing.T) {
	g := NewGraph(100)
	iv := homog.Point(7)
	for _, id := range []int32{5, 4, 3, 9} {
		g.AddVertex(id, iv)
	}
	g.AddEdge(0, 1) // 5–4
	g.AddEdge(1, 2) // 4–3
	g.AddEdge(2, 3) // 3–9
	if g.parent != nil {
		t.Fatal("building the graph allocated the contraction record")
	}
	if g.RootSlot(0) != 0 {
		t.Fatalf("RootSlot(0) = %d before any contraction, want 0", g.RootSlot(0))
	}
	g.ContractSlots(1, 0) // 5 into 4
	g.ContractSlots(2, 1) // 4 into 3
	ghost := g.AddVertex(0, iv)
	g.AddEdge(ghost, 2)
	g.ContractSlots(int(ghost), 2) // 3 into 0
	for s, id := range []int32{5, 4, 3} {
		if r := g.RootSlot(s); r != int(ghost) {
			t.Fatalf("region %d resolves to slot %d holding %d, want slot %d holding 0", id, r, g.SlotID(r), ghost)
		}
	}
	if g.RootSlot(3) != 3 || g.RootSlot(int(ghost)) != int(ghost) {
		t.Fatalf("live slots resolve to %d and %d, want themselves", g.RootSlot(3), g.RootSlot(int(ghost)))
	}
}

// TestSlotOfAndNeighbours: slots follow insertion order, neighbour lists
// are ascending slots, and a contracted region's slot is dead.
func TestSlotOfAndNeighbours(t *testing.T) {
	g := NewGraph(100)
	for k, id := range []int32{30, 10, 20} {
		if s := g.AddVertex(id, homog.Interval{Lo: 5, Hi: 5}); s != int32(k) || g.SlotID(k) != id {
			t.Fatalf("AddVertex(%d) = %d holding %d; want slot %d", id, s, g.SlotID(int(s)), k)
		}
	}
	g.AddEdge(0, 2) // 30–20
	g.AddEdge(0, 1) // 30–10
	if got := g.SlotNeighbours(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("SlotNeighbours(0) = %v, want [1 2]", got)
	}
	g.ContractSlots(slotOf(t, g, 10), slotOf(t, g, 30))
	if g.SlotAlive(0) || contains(g, 30) {
		t.Fatal("a contracted region is still live")
	}
	if got := g.SlotNeighbours(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("keeper's SlotNeighbours = %v, want [2]", got)
	}
}

// pixelSquares lists every pixel of im as its own 1×1 square: the
// squares of the graph that pixelLabels builds, slot for slot.
func pixelSquares(im *pixmap.Image) []quadsplit.Square {
	out := make([]quadsplit.Square, len(im.Pix))
	for i, v := range im.Pix {
		out[i] = quadsplit.Square{ID: int32(i), IV: homog.Point(v)}
	}
	return out
}

// pixelLabels labels every pixel of a w×h image as its own region.
func pixelLabels(n int) []int32 {
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	return labels
}

// stripes is a 1×n image of the given values, every pixel its own region.
func stripes(vals []uint8) *pixmap.Image {
	im := pixmap.New(len(vals), 1)
	copy(im.Pix, vals)
	return im
}

// stripesGraph builds the graph of stripes(vals) under threshold t.
func stripesGraph(vals []uint8, t int) *Graph {
	return build(stripes(vals), pixelLabels(len(vals)), t)
}

func TestMergeAllChain(t *testing.T) {
	// Four pixels of equal value merge to one region; the exact pairing
	// per iteration depends on tie policy but the result does not.
	vals := []uint8{5, 5, 5, 5}
	for _, policy := range []TiePolicy{SmallestID, LargestID, Random} {
		g := stripesGraph(vals, 0)
		ids := slices.Clone(g.ids)
		stats := mergeAll(g, policy, 3)
		if g.NumVertices() != 1 {
			t.Fatalf("%v: vertices = %d, want 1", policy, g.NumVertices())
		}
		if stats.TotalMerges() != 3 {
			t.Fatalf("%v: merges = %d, want 3", policy, stats.TotalMerges())
		}
		ref := idMap{1: 0, 2: 0, 3: 0}
		checkRelabel(t, policy.String(), g, stripes(vals), pixelSquares(stripes(vals)), ids, ref)
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
	if hasActiveEdge(g) {
		t.Fatal("active edges remain after MergeAll")
	}
}

func TestMergeIterationMutualOnly(t *testing.T) {
	// Values 0, 4, 8 with T=8: middle vertex prefers either side (ties at
	// weight 4... actually weight(0,4)=4, weight(4,8)=4: tie). Ends prefer
	// middle. With SmallestID, middle (id 1) picks id 0; id 0 picks id 1:
	// merge (0,1). Vertex 2 picks 1 but 1 picked 0: no merge for 2.
	g := stripesGraph([]uint8{0, 4, 8}, 8)
	rounds := 0
	if _, err := g.MergeAll(context.Background(), SmallestID, 0, func(iter, merged int) {
		rounds++
		if iter != 1 {
			return
		}
		if merged != 1 {
			t.Fatalf("merged = %d, want 1", merged)
		}
		if !contains(g, 0) {
			t.Fatal("vertex 0 should survive as representative")
		}
		if contains(g, 1) {
			t.Fatal("vertex 1 should be absorbed")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("MergeAll ran no round")
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
		stats := mergeAll(g, Random, seed)
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
		g := build(im, labels, tVal)
		mergeAll(g, policy, seed)
		if hasActiveEdge(g) {
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
		g := build(im, labels, 10)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ok := true
		_, err := g.MergeAll(ctx, SmallestID, 0, func(iter, merged int) {
			if merged == 0 || iter > 200 {
				ok = false
				cancel() // a stall would otherwise loop for ever
			}
		})
		return err == nil && ok && !hasActiveEdge(g)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}
