package core

import (
	"testing"

	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

func TestSerialBaselineValid(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	seg, err := runEngine(SerialBaseline{}, im, Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(seg, im, 10); err != nil {
		t.Fatal(err)
	}
	if seg.FinalRegions != 7 {
		t.Fatalf("final regions = %d, want 7", seg.FinalRegions)
	}
}

func TestSerialBaselineIterations(t *testing.T) {
	// The serial baseline does exactly squares − regions merges, one per
	// iteration.
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	seg, err := runEngine(SerialBaseline{}, im, Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := seg.SquaresAfterSplit - seg.FinalRegions
	if seg.MergeIterations != want {
		t.Fatalf("merge iterations = %d, want %d", seg.MergeIterations, want)
	}
	// And the parallel kernel is far below that.
	par, err := runEngine(Sequential{}, im, Config{Threshold: 10, Tie: rag.Random, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par.MergeIterations*5 >= seg.MergeIterations {
		t.Fatalf("parallel %d vs serial %d: gap too small", par.MergeIterations, seg.MergeIterations)
	}
}

func TestSerialBaselineName(t *testing.T) {
	if (SerialBaseline{}).Name() != "serial-baseline" {
		t.Fatal("name wrong")
	}
}

func TestSerialBaselineSameRegionCountAsParallel(t *testing.T) {
	// On the clean paper images the attainable region structure is
	// order-independent, so the baseline and the parallel kernel agree on
	// the final count.
	for _, id := range []pixmap.PaperImageID{pixmap.Image1NestedRects128, pixmap.Image2Rects128} {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		a, err := runEngine(SerialBaseline{}, im, Config{Threshold: 10})
		if err != nil {
			t.Fatal(err)
		}
		b, err := runEngine(Sequential{}, im, Config{Threshold: 10, Tie: rag.SmallestID})
		if err != nil {
			t.Fatal(err)
		}
		if a.FinalRegions != b.FinalRegions {
			t.Errorf("%v: serial %d vs parallel %d regions", id, a.FinalRegions, b.FinalRegions)
		}
	}
}
