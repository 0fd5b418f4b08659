package dpengine

import (
	"context"
	"testing"
	"testing/quick"

	"regiongrow/internal/core"
	"regiongrow/internal/machine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

// segment runs eng once with a background context and a zero core.Run:
// no observer, no pooled scratch.
func segment(eng core.Engine, im *pixmap.Image, cfg core.Config) (*core.Segmentation, error) {
	return eng.SegmentContext(context.Background(), im, cfg, core.Run{})
}

// TestRejectsMessagePassingConfig: a configuration of the other model is a
// programming error, so New panics instead of returning an engine.
func TestRejectsMessagePassingConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accepted an MP configuration")
		}
	}()
	New(machine.CM5_LP)
}

func TestName(t *testing.T) {
	e := New(machine.CM2_8K)
	if e.Name() != "data-parallel/CM2-8K" {
		t.Fatalf("Name = %q", e.Name())
	}
	if e.Config() != machine.CM2_8K {
		t.Fatal("Config wrong")
	}
}

// assertMatchesSequential runs both engines and requires identical
// segmentations and statistics.
func assertMatchesSequential(t *testing.T, e *Engine, im *pixmap.Image, cfg core.Config) {
	t.Helper()
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := segment(e, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualLabels(got) {
		t.Fatalf("labels differ from sequential (tie=%v seed=%d T=%d)", cfg.Tie, cfg.Seed, cfg.Threshold)
	}
	if want.SplitIterations != got.SplitIterations {
		t.Fatalf("split iterations %d vs %d", want.SplitIterations, got.SplitIterations)
	}
	if want.SquaresAfterSplit != got.SquaresAfterSplit {
		t.Fatalf("squares %d vs %d", want.SquaresAfterSplit, got.SquaresAfterSplit)
	}
	if want.MergeIterations != got.MergeIterations {
		t.Fatalf("merge iterations %d vs %d", want.MergeIterations, got.MergeIterations)
	}
	if want.FinalRegions != got.FinalRegions {
		t.Fatalf("final regions %d vs %d", want.FinalRegions, got.FinalRegions)
	}
	for i, m := range want.MergesPerIter {
		if got.MergesPerIter[i] != m {
			t.Fatalf("merges in iteration %d: %d vs %d", i+1, m, got.MergesPerIter[i])
		}
	}
	if err := core.Validate(got, im, cfg.Threshold); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesSequentialOnPaperImages(t *testing.T) {
	e := New(machine.CM2_8K)
	for _, id := range pixmap.AllPaperImages() {
		if testing.Short() && id.Size() == 256 {
			continue
		}
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		for _, tie := range []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random} {
			assertMatchesSequential(t, e, im, core.Config{Threshold: 10, Tie: tie, Seed: 99})
		}
	}
}

func TestMatchesSequentialAcrossConfigs(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	for _, mc := range []machine.ConfigID{machine.CM2_8K, machine.CM2_16K, machine.CM5_CMF} {
		assertMatchesSequential(t, New(mc), im, core.Config{Threshold: 10, Tie: rag.Random, Seed: 5})
	}
}

func TestMatchesSequentialProperty(t *testing.T) {
	e := New(machine.CM2_8K)
	err := quick.Check(func(seed uint64, tRaw, policyRaw uint8) bool {
		im := pixmap.Random(32, seed)
		for i := range im.Pix {
			im.Pix[i] &= 0x3F
		}
		cfg := core.Config{
			Threshold: int(tRaw % 64),
			Tie:       []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random}[policyRaw%3],
			Seed:      seed,
		}
		want, err := segment(core.Sequential{}, im, cfg)
		if err != nil {
			return false
		}
		got, err := segment(e, im, cfg)
		if err != nil {
			return false
		}
		return want.EqualLabels(got) && want.MergeIterations == got.MergeIterations
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnboundedCapAndThresholdExtremes(t *testing.T) {
	e := New(machine.CM2_16K)
	im := pixmap.Random(32, 3)
	assertMatchesSequential(t, e, im, core.Config{Threshold: 255, MaxSquare: -1})
	assertMatchesSequential(t, e, im, core.Config{Threshold: 0})
	assertMatchesSequential(t, e, pixmap.Uniform(32, 9), core.Config{Threshold: 0, MaxSquare: -1})
	assertMatchesSequential(t, e, pixmap.Checkerboard(32, 0, 255), core.Config{Threshold: 10})
}

func TestNonSquareImages(t *testing.T) {
	e := New(machine.CM2_8K)
	im := pixmap.New(48, 16)
	im.FillRect(0, 0, 48, 16, 30)
	im.FillRect(10, 3, 37, 11, 90)
	assertMatchesSequential(t, e, im, core.Config{Threshold: 5})
}

func TestSimulatedClocksPopulated(t *testing.T) {
	e := New(machine.CM2_8K)
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	seg, err := segment(e, im, core.Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if seg.SplitSim <= 0 || seg.MergeSim <= 0 {
		t.Fatalf("simulated clocks not populated: split=%v merge=%v", seg.SplitSim, seg.MergeSim)
	}
	if seg.SplitWall <= 0 || seg.MergeWall <= 0 {
		t.Fatal("wall clocks not populated")
	}
}

func TestMoreProcessorsNotSlower(t *testing.T) {
	// Scaling ablation: the same program on the 16K profile must not be
	// slower than on the 8K profile in simulated time.
	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.SmallestID}
	s8, err := segment(New(machine.CM2_8K), im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s16, err := segment(New(machine.CM2_16K), im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s16.SplitSim >= s8.SplitSim {
		t.Fatalf("split: 16K %.4f not faster than 8K %.4f", s16.SplitSim, s8.SplitSim)
	}
	if s16.MergeSim >= s8.MergeSim {
		t.Fatalf("merge: 16K %.4f not faster than 8K %.4f", s16.MergeSim, s8.MergeSim)
	}
}

func TestNewWithProfile(t *testing.T) {
	p := machine.Get(machine.CM2_8K)
	p.PE = 1024
	e := NewWithProfile(machine.CM2_8K, p)
	im := pixmap.Uniform(32, 5)
	seg, err := segment(e, im, core.Config{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(seg, im, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyImage(t *testing.T) {
	e := New(machine.CM2_8K)
	seg, err := segment(e, pixmap.New(0, 0), core.Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if seg.FinalRegions != 0 {
		t.Fatalf("empty image: %d regions", seg.FinalRegions)
	}
}
