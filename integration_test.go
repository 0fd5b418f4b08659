package regiongrow

import (
	"context"
	"fmt"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/dpengine"
	"regiongrow/internal/machine"
	"regiongrow/internal/mpengine"
	"regiongrow/internal/mpvm"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/shmengine"
)

// TestFullMatrixSmallImages drives every engine (plus custom node counts
// and both schemes) across a grid of image shapes, thresholds, and
// policies, requiring byte-identical segmentations throughout. This is
// the repository's broadest integration test.
func TestFullMatrixSmallImages(t *testing.T) {
	type img struct {
		name string
		im   *pixmap.Image
	}
	images := []img{
		{"uniform32", pixmap.Uniform(32, 80)},
		{"checker32", pixmap.Checkerboard(32, 0, 255)},
		{"gradient64", pixmap.Gradient(64, 255)},
		{"random64", maskLow(pixmap.Random(64, 42))},
		{"rect64x32", rectScene(64, 32)},
	}
	engines := []core.Engine{}
	for _, mc := range []machine.ConfigID{machine.CM2_8K, machine.CM5_CMF} {
		e, err := dpengine.New(mc)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	engines = append(engines,
		mpengine.NewCustom(4, mpvm.LP, machine.Get(machine.CM5_LP)),
		mpengine.NewCustom(8, mpvm.Async, machine.Get(machine.CM5_Async)),
		shmengine.New(),
		shmengine.NewWithWorkers(3),
		core.SerialBaseline{},
	)

	for _, tc := range images {
		for _, threshold := range []int{0, 10, 60} {
			for _, tie := range []TiePolicy{SmallestIDTie, RandomTie} {
				cfg := Config{Threshold: threshold, Tie: tie, Seed: 9, MaxSquare: 8}
				name := fmt.Sprintf("%s/T=%d/%v", tc.name, threshold, tie)
				ref, err := Segment(tc.im, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := Validate(ref, tc.im, cfg); err != nil {
					t.Fatalf("%s: sequential invalid: %v", name, err)
				}
				for _, eng := range engines {
					seg, err := eng.Segment(tc.im, cfg)
					if err != nil {
						t.Fatalf("%s/%s: %v", name, eng.Name(), err)
					}
					if err := Validate(seg, tc.im, cfg); err != nil {
						t.Fatalf("%s/%s: invalid: %v", name, eng.Name(), err)
					}
					if _, serial := eng.(core.SerialBaseline); serial {
						// The baseline merges in a different order; it
						// must be valid but need not match labels.
						continue
					}
					if !ref.EqualLabels(seg) {
						t.Fatalf("%s/%s: labels differ from sequential", name, eng.Name())
					}
				}
			}
		}
	}
}

func maskLow(im *pixmap.Image) *pixmap.Image {
	for i := range im.Pix {
		im.Pix[i] &= 0x3F
	}
	return im
}

func rectScene(w, h int) *pixmap.Image {
	im := pixmap.New(w, h)
	im.FillRect(0, 0, w, h, 30)
	im.FillRect(w/8+1, h/8+1, w-w/8-1, h-h/8-1, 120)
	im.FillRect(w/2, h/4, w-2, h/2, 220)
	return im
}

// TestNativeMatchesSequentialOnPaperImages is the native engine's
// acceptance property: byte-identical segmentations to the sequential
// reference on all six paper images under all three tie policies.
func TestNativeMatchesSequentialOnPaperImages(t *testing.T) {
	for _, id := range AllPaperImageIDs() {
		im := GeneratePaperImage(id)
		for _, tie := range []TiePolicy{SmallestIDTie, LargestIDTie, RandomTie} {
			cfg := Config{Threshold: 10, Tie: tie, Seed: 1}
			ref, err := Segment(im, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", id, tie, err)
			}
			seg, err := SegmentNative(im, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", id, tie, err)
			}
			if !ref.EqualLabels(seg) {
				t.Errorf("%v/%v: native labels differ from sequential", id, tie)
			}
			if seg.MergeIterations != ref.MergeIterations {
				t.Errorf("%v/%v: native merge iters %d, want %d", id, tie, seg.MergeIterations, ref.MergeIterations)
			}
			if err := Validate(seg, im, cfg); err != nil {
				t.Errorf("%v/%v: %v", id, tie, err)
			}
		}
	}
}

// TestRunExperimentWithNative checks the optional sixth table row: the
// native engine's row carries host wall times, no simulated seconds, and
// the same split iteration count as the simulated rows.
func TestRunExperimentWithNative(t *testing.T) {
	exp, err := RunExperimentWithNative(context.Background(), Image2Rects128, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 6 {
		t.Fatalf("%d rows, want 5 simulated + 1 native", len(exp.Rows))
	}
	nat := exp.Rows[5]
	if nat.Config != machine.HostNative {
		t.Fatalf("last row config = %v, want HostNative", nat.Config)
	}
	if nat.SplitSecs != 0 || nat.MergeSecs != 0 {
		t.Fatalf("native row has simulated seconds: %+v", nat)
	}
	if nat.SplitIters != exp.Rows[0].SplitIters {
		t.Fatalf("native split iters %d, want %d", nat.SplitIters, exp.Rows[0].SplitIters)
	}
	if nat.WallSplit <= 0 || nat.WallMerge <= 0 {
		t.Fatalf("native row missing host wall times: %+v", nat)
	}
}

// TestPaperOrderingsHold regenerates the full evaluation (all six images,
// all five configurations) and asserts the paper's qualitative claims
// C2–C5 hold in the model — the repository's headline reproduction
// property.
func TestPaperOrderingsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full 30-run evaluation")
	}
	exps, err := RunAllExperiments(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bad := CheckOrderings(exps); len(bad) > 0 {
		for _, b := range bad {
			t.Error(b)
		}
	}
	// Structural fidelity: exact split iterations and final region counts.
	wantRegions := map[PaperImageID]int{
		Image1NestedRects128: 2, Image2Rects128: 7, Image3Circles128: 11,
		Image4NestedRects256: 2, Image5Rects256: 7, Image6Tool256: 4,
	}
	for _, exp := range exps {
		if exp.FinalRegions != wantRegions[exp.Image] {
			t.Errorf("%v: %d final regions, want %d", exp.Image, exp.FinalRegions, wantRegions[exp.Image])
		}
		wantIters := 4
		if exp.Image.Size() == 256 {
			wantIters = 5
		}
		for _, row := range exp.Rows {
			if row.SplitIters != wantIters {
				t.Errorf("%v %v: split iters %d, want %d", exp.Image, row.Config, row.SplitIters, wantIters)
			}
		}
	}
}

// TestSeedsChangeHistoryNotValidity: different seeds may take different
// merge paths but always produce valid segmentations, and on the clean
// paper images the same final count.
func TestSeedsChangeHistoryNotValidity(t *testing.T) {
	im := GeneratePaperImage(Image2Rects128)
	counts := map[int]bool{}
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := Config{Threshold: 10, Tie: RandomTie, Seed: seed}
		seg, err := Segment(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(seg, im, cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		counts[seg.FinalRegions] = true
	}
	if len(counts) != 1 || !counts[7] {
		t.Fatalf("region counts varied across seeds: %v", counts)
	}
}
