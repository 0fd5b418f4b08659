package core

import (
	"fmt"
	"testing"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/rag"
	"regiongrow/internal/unionfind"
)

// referenceValidate is the map version Validate replaced, kept as its
// reference: a first-index map for (1), the per-pixel union-find for (2),
// an interval map for (3) and a map of the adjacent pairs seen for (4).
func referenceValidate(s *Segmentation, im *pixmap.Image, threshold int) error {
	if s.W != im.W || s.H != im.H || len(s.Labels) != im.W*im.H {
		return fmt.Errorf("core: segmentation shape %dx%d/%d does not match image %dx%d",
			s.W, s.H, len(s.Labels), im.W, im.H)
	}
	if len(s.Labels) == 0 {
		return nil
	}
	// (1) representative = min pixel index with that label.
	minIdx := make(map[int32]int)
	for i, lab := range s.Labels {
		if _, ok := minIdx[lab]; !ok {
			minIdx[lab] = i
		}
	}
	for lab, idx := range minIdx {
		if int(lab) != idx {
			return fmt.Errorf("core: region label %d but first pixel index %d", lab, idx)
		}
	}
	// (2) connectivity: union-find over same-label adjacency must yield
	// exactly one set per label.
	d := unionfind.New(len(s.Labels))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			i := y*im.W + x
			if x+1 < im.W && s.Labels[i] == s.Labels[i+1] {
				d.Union(i, i+1)
			}
			if y+1 < im.H && s.Labels[i] == s.Labels[i+im.W] {
				d.Union(i, i+im.W)
			}
		}
	}
	if d.Sets() != len(minIdx) {
		return fmt.Errorf("core: %d labels but %d connected components — some region is disconnected",
			len(minIdx), d.Sets())
	}
	// (3) per-region homogeneity over actual pixels.
	ivs := make(map[int32]homog.Interval)
	for i, lab := range s.Labels {
		iv, ok := ivs[lab]
		if !ok {
			iv = homog.Empty()
		}
		ivs[lab] = iv.Union(homog.Point(im.Pix[i]))
	}
	for lab, iv := range ivs {
		if iv.Range() > threshold {
			return fmt.Errorf("core: region %d inhomogeneous: %v", lab, iv)
		}
	}
	// (4) no adjacent pair still mergeable.
	type pair struct{ a, b int32 }
	seen := make(map[pair]struct{})
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			i := y*im.W + x
			for k, j := range [2]int{i + 1, i + im.W} {
				if k == 0 && x+1 >= im.W {
					continue
				}
				if k == 1 && y+1 >= im.H {
					continue
				}
				a, b := s.Labels[i], s.Labels[j]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				p := pair{a, b}
				if _, ok := seen[p]; ok {
					continue
				}
				seen[p] = struct{}{}
				if ivs[a].Union(ivs[b]).Range() <= threshold {
					return fmt.Errorf("core: adjacent regions %d and %d could still merge (%v ∪ %v)",
						a, b, ivs[a], ivs[b])
				}
			}
		}
	}
	return nil
}

// mutate corrupts labels, a w-wide raster, at pixel i in the way kind
// names: 0 leaves it whole, 1 gives pixel i a 4-neighbour's label (val
// picks which), 2 gives it val, 3 splits its region at i (every pixel of
// the region from i on takes the label i), and 4 shifts every label by
// val mod 5 − 2.
func mutate(labels []int32, w, i int, kind uint8, val int32) {
	switch kind % 5 {
	case 1:
		x := i % w
		switch {
		case val&3 == 0 && x > 0:
			labels[i] = labels[i-1]
		case val&3 == 1 && x+1 < w:
			labels[i] = labels[i+1]
		case val&3 == 2 && i >= w:
			labels[i] = labels[i-w]
		case val&3 == 3 && i+w < len(labels):
			labels[i] = labels[i+w]
		}
	case 2:
		labels[i] = val
	case 3:
		r := labels[i]
		for k := i; k < len(labels); k++ {
			if labels[k] == r {
				labels[k] = int32(i)
			}
		}
	case 4:
		d := int32(uint32(val)%5) - 2
		for k := range labels {
			labels[k] += d
		}
	}
}

// FuzzValidateMatchesReference: on the sequential segmentation of a
// random image up to 10×10, whole or mutated, Validate and the map
// reference accept or reject alike, under the threshold it was segmented
// at or another in [−1, 40].
func FuzzValidateMatchesReference(f *testing.F) {
	for kind := range uint8(5) {
		f.Add(uint64(kind), uint8(7), uint8(5), uint8(12), uint8(4), uint8(0), kind, uint16(17), int32(kind))
	}
	f.Add(uint64(9), uint8(9), uint8(9), uint8(255), uint8(30), uint8(21), uint8(2), uint16(3), int32(-7))
	f.Fuzz(func(t *testing.T, seed uint64, w, h, span, tSeg, tVal, kind uint8, pos uint16, val int32) {
		im := pixmap.New(1+int(w%10), 1+int(h%10))
		g := prand.New(seed)
		for i := range im.Pix {
			im.Pix[i] = uint8(g.Intn(int(span) + 1))
		}
		cfg := Config{Threshold: int(tSeg % 40), Tie: rag.AllTiePolicies()[seed%3], Seed: seed}
		seg, err := runEngine(Sequential{}, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mutate(seg.Labels, im.W, int(pos)%len(seg.Labels), kind, val)
		threshold := cfg.Threshold
		if tVal%2 == 1 {
			threshold = int(tVal/2%42) - 1
		}
		got, want := Validate(seg, im, threshold), referenceValidate(seg, im, threshold)
		if (got == nil) != (want == nil) {
			t.Fatalf("T=%d, labels %v: Validate = %v, reference = %v", threshold, seg.Labels, got, want)
		}
	})
}
