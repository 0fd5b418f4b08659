package rag

import (
	"context"
	"fmt"
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
// activity test that scans every live slot.
func referenceMergeAll(g *Graph, policy TiePolicy, seed uint64) (MergeStats, *Assignments) {
	asg := NewAssignments()
	choice := make([]int32, g.Slots())
	var tied []int32
	stats, _ := Drive(context.Background(), policy, func() bool { return hasActiveEdge(g) },
		func(effective TiePolicy, iter int) int {
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
				g.ContractSlots(s, int(c))
				asg.Record(g.SlotID(int(c)), g.SlotID(s))
				merged++
			}
			return merged
		})
	return stats, asg
}

// crossCheck splits im under (threshold, maxSquare), merges the split's
// graph with MergeAll and with referenceMergeAll, and fails t unless the
// two agree on every round's merge count, the forced resolutions and the
// relabelled output, and MergeAll leaves no live slot with an active
// edge. It returns the number of forced rounds.
func crossCheck(t *testing.T, im *pixmap.Image, threshold, maxSquare int, policy TiePolicy, seed uint64) int {
	t.Helper()
	c := homog.NewRange(threshold)
	sp, err := quadsplit.Split(context.Background(), im, c, quadsplit.Options{MaxSquare: maxSquare})
	if err != nil {
		t.Fatal(err)
	}
	g, ref := build(im, sp.Labels, c), build(im, sp.Labels, c)
	got, asg := mergeAll(g, policy, seed)
	want, refAsg := referenceMergeAll(ref, policy, seed)
	name := fmt.Sprintf("%dx%d T=%d cap=%d %v seed=%d", im.W, im.H, threshold, maxSquare, policy, seed)
	if !slices.Equal(got.MergesPerIter, want.MergesPerIter) || got.ForcedResolutions != want.ForcedResolutions {
		t.Fatalf("%s: merges per round %v, forced %d; reference %v, forced %d",
			name, got.MergesPerIter, got.ForcedResolutions, want.MergesPerIter, want.ForcedResolutions)
	}
	if !slices.Equal(asg.Relabel(sp.Labels), refAsg.Relabel(sp.Labels)) {
		t.Fatalf("%s: labels differ from the reference", name)
	}
	if hasActiveEdge(g) {
		t.Fatalf("%s: an active edge survived MergeAll", name)
	}
	return got.ForcedResolutions
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
// policy switch and the round after it are covered too.
func TestMergeAllMatchesFullScan(t *testing.T) {
	seeds := []uint64{1, 7, 1993}
	forced := 0
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		for _, policy := range AllTiePolicies() {
			for _, seed := range seeds {
				forced += crossCheck(t, im, 10, 0, policy, seed)
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
				forced += crossCheck(t, im, threshold, maxSquare, policy, seed)
			}
		}
	}
	if forced == 0 {
		t.Fatal("no case took a forced SmallestID round")
	}
	t.Logf("%d forced rounds", forced)
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

// forcedSeed is a FuzzMergeAll input that takes a forced SmallestID
// round: 16×16 pixels from prand stream 1 over three grey levels four
// apart, threshold 8, the default cap, Random, seed 3.
var forcedSeed = struct {
	w, h, levels, step, threshold, maxSquare, tie uint8
	seed                                          uint64
	pix                                           []byte
}{15, 15, 1, 3, 8, 0, 2, 3, prandBytes(256, 1)}

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
	c := forcedSeed
	if crossCheck(t, fuzzImage(c.w, c.h, c.levels, c.step, c.pix), int(c.threshold), int(c.maxSquare), AllTiePolicies()[c.tie], c.seed) == 0 {
		t.Fatal("the fuzz corpus's forced-round seed no longer forces a round")
	}
}

// FuzzMergeAll cross-checks MergeAll against the full-scan reference on
// small images with few grey levels, under any threshold 0–20, square
// cap 0–8, tie policy and seed. The corpus starts from forcedSeed.
func FuzzMergeAll(f *testing.F) {
	c := forcedSeed
	f.Add(c.w, c.h, c.levels, c.step, c.threshold, c.maxSquare, c.tie, c.seed, c.pix)
	f.Fuzz(func(t *testing.T, w, h, levels, step, threshold, maxSquare, tie uint8, seed uint64, pix []byte) {
		im := fuzzImage(w, h, levels, step, pix)
		crossCheck(t, im, int(threshold%21), int(maxSquare%9), AllTiePolicies()[tie%3], seed)
	})
}
