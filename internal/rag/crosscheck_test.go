package rag

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/quadsplit"
)

// referenceMergeAll is the full-scan merge loop MergeAll must reproduce:
// Drive, with every round computing every live slot's SlotChoice and
// contracting the mutual pairs into their smaller-ID endpoint, and an
// activity test that scans every live slot. It records its merges in an
// ID map of its own, which checkRelabel resolves pixel by pixel.
func referenceMergeAll(g *Graph, policy TiePolicy, seed uint64) (MergeStats, idMap) {
	ref := idMap{}
	choice := make([]int32, g.Slots())
	var tied []int32
	stats, _ := Drive(context.Background(), policy,
		func(effective TiePolicy, iter int) (int, bool, error) {
			if !hasActiveEdge(g) {
				return 0, false, nil
			}
			for s := range choice {
				choice[s] = noSlot
				if g.SlotAlive(s) {
					var c int
					c, tied = g.SlotChoice(s, effective, seed, iter, tied)
					choice[s] = int32(c)
				}
			}
			merged := 0
			for s, c := range choice {
				if c < 0 || int(choice[c]) != s || g.SlotID(s) >= g.SlotID(int(c)) {
					continue
				}
				ref[g.SlotID(int(c))] = g.SlotID(s)
				referenceContract(g, int32(s), c)
				merged++
			}
			return merged, true, nil
		})
	return stats, ref
}

// referenceContract is the contraction contractSlots must reproduce,
// one sorted insert or delete at a time: slot l merges into slot k, k
// takes the union of the intervals, every neighbour of l other than k
// drops l and gains k, k drops l and gains l's other neighbours, and l
// goes dead with an empty list. It shares no list edit with the graph's
// own contraction.
func referenceContract(g *Graph, k, l int32) {
	insert := func(list []int32, x int32) []int32 {
		if i, found := slices.BinarySearch(list, x); !found {
			return slices.Insert(list, i, x)
		}
		return list
	}
	remove := func(list []int32, x int32) []int32 {
		if i, found := slices.BinarySearch(list, x); found {
			return slices.Delete(list, i, i+1)
		}
		return list
	}
	g.lo[k] = min(g.lo[k], g.lo[l])
	g.hi[k] = max(g.hi[k], g.hi[l])
	g.adj[k] = remove(g.adj[k], l)
	for _, n := range g.adj[l] {
		if n == k {
			continue
		}
		g.adj[n] = remove(g.adj[n], l)
		g.adj[n] = insert(g.adj[n], k)
		g.adj[k] = insert(g.adj[k], n)
	}
	g.adj[l] = nil
	g.alive[l] = false
	g.nAlive--
	if g.parent != nil {
		g.parent[l] = k
	}
}

// idMap is a reference record of merges: a merged-away region ID → the
// ID it merged into.
type idMap map[int32]int32

// resolve maps every label to its final region ID, one pixel at a time,
// remembering each label's walk along the chain.
func (m idMap) resolve(labels []int32) []int32 {
	out := make([]int32, len(labels))
	final := map[int32]int32{}
	for i, lab := range labels {
		id, ok := final[lab]
		if !ok {
			for id = lab; ; {
				next, ok := m[id]
				if !ok {
					break
				}
				id = next
			}
			final[lab] = id
		}
		out[i] = id
	}
	return out
}

// pixelRegions is the per-pixel region summary of a final label raster:
// one map update per pixel, regions in ascending ID order, nil for none.
func pixelRegions(im *pixmap.Image, labels []int32) []Region {
	info := map[int32]*Region{}
	for i, lab := range labels {
		r, ok := info[lab]
		if !ok {
			r = &Region{ID: lab, IV: homog.Empty()}
			info[lab] = r
		}
		r.Area++
		r.IV = r.IV.Union(homog.Point(im.Pix[i]))
	}
	var out []Region
	for _, r := range info {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b Region) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// checkRelabel fails t unless g's Relabel of squares (a list over im
// whose square k is g's slot k, such as the split g was built from) gives
// the labels ref resolves the painted slots' region IDs to, and the
// regions a per-pixel pass over them gives. ids holds each slot's region
// ID from before the merge: a merge may move a smaller ID into a slot, so
// g's own IDs no longer name every slot's square.
func checkRelabel(t *testing.T, name string, g *Graph, im *pixmap.Image, squares []quadsplit.Square, ids []int32, ref idMap) {
	t.Helper()
	got, regions := g.Relabel(squares, im.W, im.H)
	slots := paintSlots(squares, im.W, im.H)
	want := make([]int32, len(slots))
	for i, s := range slots {
		want[i] = ids[s]
	}
	want = ref.resolve(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: labels %v, reference %v", name, got, want)
	}
	if wantRegions := pixelRegions(im, want); !reflect.DeepEqual(regions, wantRegions) {
		t.Fatalf("%s: regions %+v, reference %+v", name, regions, wantRegions)
	}
}

// sameRegions reports the first difference between two merged graphs,
// region by region: the same number of live regions and, for each live
// region ID, the same interval and the same set of neighbour IDs. Their
// slots may differ, since MergeAll may leave a region in its partner's
// slot. Every list of got must be in ascending slot order and name live
// slots only: a dead slot can hold a live region's ID.
func sameRegions(want, got *Graph) error {
	type region struct {
		iv   homog.Interval
		nbrs []int32
	}
	regions := func(g *Graph) (map[int32]region, error) {
		out := map[int32]region{}
		for s := 0; s < g.Slots(); s++ {
			if !g.SlotAlive(s) {
				continue
			}
			list := g.SlotNeighbours(s)
			nbrs := make([]int32, len(list))
			for i, n := range list {
				if !g.SlotAlive(int(n)) || i > 0 && list[i-1] >= n {
					return nil, fmt.Errorf("slot %d neighbours %v: not live slots in ascending order", s, list)
				}
				nbrs[i] = g.SlotID(int(n))
			}
			slices.Sort(nbrs)
			out[g.SlotID(s)] = region{g.SlotInterval(s), nbrs}
		}
		return out, nil
	}
	w, err := regions(want)
	if err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	o, err := regions(got)
	switch {
	case err != nil:
		return err
	case len(o) != len(w) || got.NumVertices() != want.NumVertices():
		return fmt.Errorf("%d live regions (%d counted), want %d", len(o), got.NumVertices(), len(w))
	}
	for id, r := range w {
		switch g, ok := o[id]; {
		case !ok:
			return fmt.Errorf("region %d missing", id)
		case g.iv != r.iv:
			return fmt.Errorf("region %d interval %v, want %v", id, g.iv, r.iv)
		case !slices.Equal(g.nbrs, r.nbrs):
			return fmt.Errorf("region %d neighbours %v, want %v", id, g.nbrs, r.nbrs)
		}
	}
	return nil
}

// crossCheck splits im under (threshold, maxSquare), builds the split's
// graph from its squares, and requires its arena to equal the label
// build's. It then merges the square graph with MergeAll and the label
// graph with referenceMergeAll, and fails t unless the two agree on every
// round's merge count and the forced resolutions, the two graphs hold
// the same regions with the same neighbours, the arena's relabel matches
// the reference's merges, and MergeAll leaves no live slot with an active
// edge. A merge that passes 4·Slots()+4 rounds is cancelled and fails:
// every active round merges or counts a Random stall, and the forced
// SmallestID round after three stalls always merges. It returns the
// number of forced rounds and of slots the merge left holding another
// region ID than their square's.
func crossCheck(t *testing.T, im *pixmap.Image, threshold, maxSquare int, policy TiePolicy, seed uint64) (forced, renamed int) {
	t.Helper()
	sp, err := quadsplit.Split(context.Background(), im, threshold, quadsplit.Options{MaxSquare: maxSquare})
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%dx%d T=%d cap=%d %v seed=%d", im.W, im.H, threshold, maxSquare, policy, seed)
	g, refGraph := squareGraph(t, sp, threshold), build(im, squareIDs(sp, 0, im.W), threshold)
	if err := sameArena(refGraph, g); err != nil {
		t.Fatalf("%s: square build: %v", name, err)
	}
	ids := slices.Clone(g.ids)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	limit := 4*g.Slots() + 4
	got, err := g.MergeAll(ctx, policy, seed, func(iter, _ int) {
		if iter > limit {
			cancel()
		}
	})
	if err != nil {
		t.Fatalf("%s: MergeAll still merging after %d rounds: %v", name, limit, err)
	}
	want, ref := referenceMergeAll(refGraph, policy, seed)
	if !slices.Equal(got.MergesPerIter, want.MergesPerIter) || got.ForcedResolutions != want.ForcedResolutions {
		t.Fatalf("%s: merges per round %v, forced %d; reference %v, forced %d",
			name, got.MergesPerIter, got.ForcedResolutions, want.MergesPerIter, want.ForcedResolutions)
	}
	if err := sameRegions(refGraph, g); err != nil {
		t.Fatalf("%s: merged graph: %v", name, err)
	}
	checkRelabel(t, name, g, im, sp.Squares, ids, ref)
	if hasActiveEdge(g) {
		t.Fatalf("%s: an active edge survived MergeAll", name)
	}
	for s, id := range ids {
		if g.SlotID(s) != id {
			renamed++
		}
	}
	return got.ForcedResolutions, renamed
}

// Field families for generated images.
const (
	fieldNoise    = iota // uniform noise over a few grey levels
	fieldRamp            // a linear ramp with a one-level dither
	fieldPlateaus        // flat rectangles, some pixels speckled
	numFields
)

// genImage draws a w×h image of the given field family from r.
func genImage(field, w, h int, r *prand.Gen) *pixmap.Image {
	im := pixmap.New(w, h)
	switch field {
	case fieldNoise:
		levels, step := 2+r.Intn(5), 1+r.Intn(8)
		for i := range im.Pix {
			im.Pix[i] = uint8(r.Intn(levels) * step)
		}
	case fieldRamp:
		dx, dy := r.Intn(4), r.Intn(4)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				im.Pix[y*w+x] = uint8((x*dx+y*dy)/2 + r.Intn(2))
			}
		}
	case fieldPlateaus:
		im.FillRect(0, 0, w, h, uint8(r.Intn(200)))
		for n := r.Intn(6); n > 0; n-- {
			x0, y0 := r.Intn(w), r.Intn(h)
			im.FillRect(x0, y0, x0+1+r.Intn(w), y0+1+r.Intn(h), uint8(r.Intn(200)))
		}
		for i := range im.Pix {
			if r.Intn(20) == 0 {
				im.Pix[i] += uint8(r.Intn(12))
			}
		}
	}
	return im
}

// TestMergeAllMatchesFullScan pins the incremental MergeAll to the
// full-scan reference loop on the six paper images and on generated
// images from 1×1 to 70×70 (noise, ramp and speckled-plateau fields;
// thresholds 1–20; square caps 0–8), under every tie policy and three
// seeds. Some Random case must take a forced SmallestID round, so the
// policy switch and the round after it are covered too, and some case
// must leave a region in its partner's slot, so the rename is.
func TestMergeAllMatchesFullScan(t *testing.T) {
	seeds := []uint64{1, 7, 1993}
	forced, renamed := 0, 0
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		for _, policy := range AllTiePolicies() {
			for _, seed := range seeds {
				f, r := crossCheck(t, im, 10, 0, policy, seed)
				forced, renamed = forced+f, renamed+r
			}
		}
	}
	r := prand.New(16)
	for i := 0; i < 66; i++ {
		w, h := 1+r.Intn(70), 1+r.Intn(70)
		switch i {
		case 0:
			w, h = 1, 1
		case 1:
			w, h = 70, 70
		}
		im := genImage(i%numFields, w, h, r)
		threshold, maxSquare := 1+r.Intn(20), r.Intn(9)
		for _, policy := range AllTiePolicies() {
			for _, seed := range seeds {
				f, r := crossCheck(t, im, threshold, maxSquare, policy, seed)
				forced, renamed = forced+f, renamed+r
			}
		}
	}
	if forced == 0 {
		t.Fatal("no case took a forced SmallestID round")
	}
	if renamed == 0 {
		t.Fatal("no case left a region in its partner's slot")
	}
	t.Logf("%d forced rounds, %d renamed slots", forced, renamed)
}

// fuzzImage decodes FuzzMergeAll's image: w×h (1–16 each) with levels
// grey levels (2–5) spaced step apart (1–8), pixel i taken from pix[i]
// (0 past its end).
func fuzzImage(w, h, levels, step uint8, pix []byte) *pixmap.Image {
	im := pixmap.New(1+int(w%16), 1+int(h%16))
	n, d := 2+int(levels%4), 1+int(step%8)
	for i := range im.Pix {
		if i < len(pix) {
			im.Pix[i] = uint8(int(pix[i]) % n * d)
		}
	}
	return im
}

// fuzzInput is one FuzzMergeAll input.
type fuzzInput struct {
	w, h, levels, step, threshold, maxSquare, tie uint8
	seed                                          uint64
	pix                                           []byte
}

// check cross-checks the merge of c's image under c's threshold (0–20),
// square cap (0–8), tie policy and seed; it returns crossCheck's counts.
func (c fuzzInput) check(t *testing.T) (forced, renamed int) {
	t.Helper()
	im := fuzzImage(c.w, c.h, c.levels, c.step, c.pix)
	return crossCheck(t, im, int(c.threshold%21), int(c.maxSquare%9), AllTiePolicies()[c.tie%3], c.seed)
}

// forcedSeed is a FuzzMergeAll input that takes a forced SmallestID
// round: 16×16 pixels from prand stream 1 over three grey levels four
// apart, threshold 8, the default cap, Random, seed 3. renameSeed is
// its image under LargestID, whose merge leaves regions in their
// partners' slots.
var (
	forcedSeed = fuzzInput{15, 15, 1, 3, 8, 0, 2, 3, prandBytes(256, 1)}
	renameSeed = fuzzInput{15, 15, 1, 3, 8, 0, 1, 3, prandBytes(256, 1)}
)

// prandBytes returns n bytes of prand stream seed.
func prandBytes(n int, seed uint64) []byte {
	r := prand.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func TestFuzzSeedTakesForcedRound(t *testing.T) {
	if forced, _ := forcedSeed.check(t); forced == 0 {
		t.Fatal("the fuzz corpus's forced-round seed no longer forces a round")
	}
}

func TestFuzzSeedRenamesASlot(t *testing.T) {
	if _, renamed := renameSeed.check(t); renamed == 0 {
		t.Fatal("the fuzz corpus's rename seed no longer leaves a region in its partner's slot")
	}
}

// FuzzMergeAll cross-checks MergeAll against the full-scan reference on
// small images with few grey levels, under any threshold 0–20, square
// cap 0–8, tie policy and seed. The corpus starts from forcedSeed and
// renameSeed.
func FuzzMergeAll(f *testing.F) {
	for _, c := range []fuzzInput{forcedSeed, renameSeed} {
		f.Add(c.w, c.h, c.levels, c.step, c.threshold, c.maxSquare, c.tie, c.seed, c.pix)
	}
	f.Fuzz(func(t *testing.T, w, h, levels, step, threshold, maxSquare, tie uint8, seed uint64, pix []byte) {
		fuzzInput{w, h, levels, step, threshold, maxSquare, tie, seed, pix}.check(t)
	})
}

// FuzzRelabel checks the contraction and the relabel on split square
// lists. It splits a w×h image (1–16 each) of the given pixels, over
// eight grey levels three apart, under threshold 0–11 and caps 0, 1, 2, 8
// and unbounded; builds the split's graph from its squares and edges and
// a twin from the labels they paint (BuildFromLabels), whose arenas must
// be equal; and applies an arbitrary sequence of contractions of adjacent
// live slots, the keeper's ID above or below the loser's: ContractSlots
// to the graph and referenceContract to the twin, whose arenas must stay
// equal. It then requires Relabel's labels and regions to equal the
// per-pixel reference over the painted slots and the contractions' ID
// map.
func FuzzRelabel(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(3), uint8(4), []byte{9, 9, 200, 3, 5, 6, 7, 8}, []byte{0, 0, 1, 1})
	f.Add(uint8(15), uint8(15), uint8(2), uint8(3), prandBytes(256, 2), prandBytes(32, 4))
	f.Add(uint8(7), uint8(12), uint8(5), uint8(0), prandBytes(96, 5), prandBytes(64, 6))
	f.Fuzz(func(t *testing.T, w, h, threshold, capSel uint8, pix, ops []byte) {
		im := pixmap.New(1+int(w%16), 1+int(h%16))
		for i := range im.Pix {
			if i < len(pix) {
				im.Pix[i] = pix[i] % 8 * 3
			}
		}
		thr := int(threshold % 12)
		maxSquare := []int{0, 1, 2, 8, quadsplit.Unbounded}[capSel%5]
		name := fmt.Sprintf("%dx%d T=%d cap=%d pix %v ops %v", im.W, im.H, thr, maxSquare, im.Pix, ops)
		sp, err := quadsplit.Split(context.Background(), im, thr, quadsplit.Options{MaxSquare: maxSquare})
		if err != nil {
			t.Fatal(err)
		}
		g, twin := squareGraph(t, sp, thr), build(im, squareIDs(sp, 0, im.W), thr)
		if err := sameArena(twin, g); err != nil {
			t.Fatalf("%s: square build: %v", name, err)
		}
		ids := slices.Clone(g.ids)
		ref := idMap{}
		for i := 0; i+1 < len(ops); i += 2 {
			var live []int
			for s := 0; s < g.Slots(); s++ {
				if g.SlotAlive(s) {
					live = append(live, s)
				}
			}
			s := live[int(ops[i])%len(live)]
			nbrs := g.SlotNeighbours(s)
			if len(nbrs) == 0 {
				continue
			}
			k, l := s, int(nbrs[int(ops[i+1]>>1)%len(nbrs)])
			if ops[i+1]&1 == 1 {
				k, l = l, k
			}
			ref[g.SlotID(l)] = g.SlotID(k)
			g.ContractSlots(k, l)
			referenceContract(twin, int32(k), int32(l))
			if err := sameArena(twin, g); err != nil {
				t.Fatalf("%s: contracting slot %d into %d: %v", name, l, k, err)
			}
		}
		checkRelabel(t, name, g, im, sp.Squares, ids, ref)
	})
}
