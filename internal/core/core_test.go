package core

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

// runEngine runs eng once with a background context and a zero Run: no
// observer, no pooled scratch.
func runEngine(eng Engine, im *pixmap.Image, cfg Config) (*Segmentation, error) {
	return eng.SegmentContext(context.Background(), im, cfg, Run{})
}

func segment(t *testing.T, im *pixmap.Image, cfg Config) *Segmentation {
	t.Helper()
	seg, err := runEngine(Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestPaperImageRegionCounts(t *testing.T) {
	want := map[pixmap.PaperImageID]int{
		pixmap.Image1NestedRects128: 2,
		pixmap.Image2Rects128:       7,
		pixmap.Image3Circles128:     11,
		pixmap.Image4NestedRects256: 2,
		pixmap.Image5Rects256:       7,
		pixmap.Image6Tool256:        4,
	}
	for id, n := range want {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		seg := segment(t, im, Config{Threshold: 10, Tie: rag.Random, Seed: 1})
		if seg.FinalRegions != n {
			t.Errorf("%v: %d final regions, want %d", id, seg.FinalRegions, n)
		}
		if err := Validate(seg, im, 10); err != nil {
			t.Errorf("%v: %v", id, err)
		}
	}
}

func TestSplitIterationsReported(t *testing.T) {
	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	seg := segment(t, im, Config{Threshold: 10})
	if seg.SplitIterations != 4 {
		t.Fatalf("split iterations = %d, want 4", seg.SplitIterations)
	}
	if seg.SquaresAfterSplit == 0 || seg.MergeIterations == 0 {
		t.Fatal("missing statistics")
	}
	if len(seg.MergesPerIter) != seg.MergeIterations {
		t.Fatalf("MergesPerIter has %d entries for %d iterations", len(seg.MergesPerIter), seg.MergeIterations)
	}
}

func TestUniformImageOneRegionUnbounded(t *testing.T) {
	im := pixmap.Uniform(64, 50)
	seg := segment(t, im, Config{Threshold: 0, MaxSquare: -1})
	if seg.FinalRegions != 1 {
		t.Fatalf("final regions = %d", seg.FinalRegions)
	}
	if seg.MergeIterations != 0 {
		t.Fatalf("merge iterations = %d for a single split square", seg.MergeIterations)
	}
}

func TestUniformImageCappedMergesBack(t *testing.T) {
	// With the default cap the split yields 64 squares that the merge
	// stage reassembles into one region.
	im := pixmap.Uniform(64, 50)
	seg := segment(t, im, Config{Threshold: 0})
	if seg.SquaresAfterSplit != 64 {
		t.Fatalf("squares = %d", seg.SquaresAfterSplit)
	}
	if seg.FinalRegions != 1 {
		t.Fatalf("final regions = %d", seg.FinalRegions)
	}
}

func TestCheckerboardNoMerges(t *testing.T) {
	im := pixmap.Checkerboard(16, 0, 255)
	seg := segment(t, im, Config{Threshold: 10})
	if seg.FinalRegions != 256 {
		t.Fatalf("final regions = %d, want 256", seg.FinalRegions)
	}
	if seg.MergeIterations != 0 {
		t.Fatalf("merge iterations = %d, want 0 (no active edges ever)", seg.MergeIterations)
	}
}

func TestThreshold255OneRegion(t *testing.T) {
	im := pixmap.Random(32, 5)
	seg := segment(t, im, Config{Threshold: 255, MaxSquare: -1})
	if seg.FinalRegions != 1 {
		t.Fatalf("T=255: %d regions", seg.FinalRegions)
	}
}

func TestDeterminism(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := Config{Threshold: 10, Tie: rag.Random, Seed: 42}
	a := segment(t, im, cfg)
	b := segment(t, im, cfg)
	if !a.EqualLabels(b) {
		t.Fatal("same seed produced different segmentations")
	}
	c := segment(t, im, Config{Threshold: 10, Tie: rag.Random, Seed: 43})
	// Different seeds may legitimately produce different label histories;
	// both must be valid.
	if err := Validate(c, im, 10); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAcceptsAndRejects(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	seg := segment(t, im, Config{Threshold: 10})
	if err := Validate(seg, im, 10); err != nil {
		t.Fatal(err)
	}
	// Corrupt: relabel one pixel to a fresh id that is not its min index.
	bad := *seg
	bad.Labels = append([]int32{}, seg.Labels...)
	bad.Labels[len(bad.Labels)-1] = 7
	if Validate(&bad, im, 10) == nil {
		t.Fatal("Validate accepted corrupted labels")
	}
	// Shape mismatch.
	if Validate(seg, pixmap.New(4, 4), 10) == nil {
		t.Fatal("Validate accepted shape mismatch")
	}
}

func TestValidateCatchesDisconnectedRegion(t *testing.T) {
	// Hand-build a segmentation where label 0 appears in two disconnected
	// corners of a 3×3 image.
	im := pixmap.Uniform(3, 9)
	seg := &Segmentation{W: 3, H: 3, Labels: []int32{
		0, 1, 1,
		1, 1, 1,
		1, 1, 0, // disconnected reuse of label 0
	}}
	seg.FillRegions(im)
	if Validate(seg, im, 255) == nil {
		t.Fatal("Validate accepted a disconnected region")
	}
}

func TestValidateCatchesMergeableNeighbours(t *testing.T) {
	// Two adjacent labels with identical intensity: they should have
	// merged, so Validate must reject, side by side or one above the
	// other, on an image one pixel wide too.
	for _, c := range []struct {
		w, h   int
		labels []int32
	}{
		{2, 2, []int32{0, 1, 0, 1}},
		{2, 1, []int32{0, 1}},
		{1, 2, []int32{0, 1}},
	} {
		im := pixmap.New(c.w, c.h)
		seg := &Segmentation{W: c.w, H: c.h, Labels: c.labels}
		seg.FillRegions(im)
		if Validate(seg, im, 10) == nil {
			t.Errorf("%dx%d %v: Validate accepted unmerged mergeable neighbours", c.w, c.h, c.labels)
		}
		if referenceValidate(seg, im, 10) == nil {
			t.Errorf("%dx%d %v: referenceValidate accepted unmerged mergeable neighbours", c.w, c.h, c.labels)
		}
	}
}

func TestValidateCatchesInhomogeneousRegion(t *testing.T) {
	im := pixmap.New(2, 1)
	im.Pix[0], im.Pix[1] = 0, 200
	seg := &Segmentation{W: 2, H: 1, Labels: []int32{0, 0}}
	seg.FillRegions(im)
	if Validate(seg, im, 10) == nil {
		t.Fatal("Validate accepted an inhomogeneous region")
	}
}

// TestValidateThresholdBoundary: on a 2×1 image of pixels 0 and r,
// Validate accepts one region of range r = T and rejects two regions
// whose union has range T, which should have merged; at r = T+1 it
// rejects the one region and accepts the two. Range T+1 has no uint8
// image once T ≥ 255. The empty image validates under every T.
func TestValidateThresholdBoundary(t *testing.T) {
	for _, threshold := range []int{0, 1, 254, 255, 300} {
		if err := Validate(&Segmentation{Labels: []int32{}}, pixmap.New(0, 0), threshold); err != nil {
			t.Errorf("T=%d, empty image: %v", threshold, err)
		}
		check := func(r int, labels []int32, valid bool) {
			im := pixmap.New(2, 1)
			im.Pix[1] = uint8(r)
			seg := &Segmentation{W: 2, H: 1, Labels: labels}
			seg.FillRegions(im)
			if err := Validate(seg, im, threshold); (err == nil) != valid {
				t.Errorf("T=%d, range %d, labels %v: Validate = %v, want valid %t", threshold, r, labels, err, valid)
			}
		}
		check(min(threshold, 255), []int32{0, 0}, true)
		check(min(threshold, 255), []int32{0, 1}, false)
		if threshold < 255 {
			check(threshold+1, []int32{0, 0}, false)
			check(threshold+1, []int32{0, 1}, true)
		}
	}
}

func TestSequentialPostconditionsProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, tRaw, policyRaw uint8) bool {
		im := pixmap.Random(24, seed)
		for i := range im.Pix {
			im.Pix[i] &= 0x3F
		}
		tVal := int(tRaw % 64)
		policy := []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random}[policyRaw%3]
		seg, err := runEngine(Sequential{}, im, Config{Threshold: tVal, Tie: policy, Seed: seed})
		if err != nil {
			return false
		}
		return Validate(seg, im, tVal) == nil
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyImage(t *testing.T) {
	seg := segment(t, pixmap.New(0, 0), Config{Threshold: 10})
	if seg.FinalRegions != 0 {
		t.Fatalf("empty image: %d regions", seg.FinalRegions)
	}
	if err := Validate(seg, pixmap.New(0, 0), 10); err != nil {
		t.Fatal(err)
	}
}

func TestEngineName(t *testing.T) {
	if (Sequential{}).Name() != "sequential" {
		t.Fatal("name wrong")
	}
}

// TestTiePolicyErrorsNameEveryPolicy requires the two errors that refuse
// an unknown tie policy, Config.Check's and TiePolicy.UnmarshalText's, to
// name every policy of rag.AllTiePolicies.
func TestTiePolicyErrorsNameEveryPolicy(t *testing.T) {
	var p rag.TiePolicy
	errs := map[string]error{
		"Check":         Config{Tie: rag.TiePolicy(len(rag.AllTiePolicies()))}.Check(),
		"UnmarshalText": p.UnmarshalText([]byte("no-such-policy")),
	}
	for name, err := range errs {
		if err == nil {
			t.Fatalf("%s accepted an unknown policy", name)
		}
		for _, policy := range rag.AllTiePolicies() {
			if !strings.Contains(err.Error(), policy.String()) {
				t.Errorf("%s: %q does not name %v", name, err, policy)
			}
		}
	}
}
