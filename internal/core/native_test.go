package core

import (
	"fmt"
	"testing"

	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

// TestMatchesSequential is Native's defining property: byte-identical
// segmentations to Sequential — labels and the full statistics the
// paper's tables report — across images (including non-square and
// non-power-of-two), thresholds, tie policies, seeds, and worker counts,
// where 0 and −1 follow GOMAXPROCS.
func TestMatchesSequential(t *testing.T) {
	if name := (Native{}).Name(); name != "native" {
		t.Fatalf("engine name %q", name)
	}
	images := map[string]*pixmap.Image{
		"uniform32":  pixmap.Uniform(32, 80),
		"checker64":  pixmap.Checkerboard(64, 0, 255),
		"gradient64": pixmap.Gradient(64, 255),
		"random96":   pixmap.Random(96, 11),
		"circles128": pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions()),
		"rect96x48":  rectScene(96, 48),
		"odd75x33":   oddCrop(75, 33),
	}
	for name, im := range images {
		for _, threshold := range []int{0, 10, 60} {
			for _, tie := range []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random} {
				for _, seed := range []uint64{1, 42} {
					cfg := Config{Threshold: threshold, Tie: tie, Seed: seed}
					want, err := runEngine(Sequential{}, im, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 3, 7, 0, -1} {
						label := fmt.Sprintf("%s/T=%d/%v/seed=%d/w=%d", name, threshold, tie, seed, workers)
						got, err := runEngine(Native{Workers: workers}, im, cfg)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						checkEqual(t, label, want, got)
						if err := Validate(got, im, cfg.Threshold); err != nil {
							t.Errorf("%s: invalid: %v", label, err)
						}
					}
					if tie != rag.Random {
						break // seed only matters under Random
					}
				}
			}
		}
	}
}

func checkEqual(t *testing.T, label string, want, got *Segmentation) {
	t.Helper()
	if !want.EqualLabels(got) {
		t.Errorf("%s: labels differ from sequential", label)
	}
	if got.SplitIterations != want.SplitIterations {
		t.Errorf("%s: split iters %d, want %d", label, got.SplitIterations, want.SplitIterations)
	}
	if got.MergeIterations != want.MergeIterations {
		t.Errorf("%s: merge iters %d, want %d", label, got.MergeIterations, want.MergeIterations)
	}
	if got.SquaresAfterSplit != want.SquaresAfterSplit {
		t.Errorf("%s: squares %d, want %d", label, got.SquaresAfterSplit, want.SquaresAfterSplit)
	}
	if got.FinalRegions != want.FinalRegions {
		t.Errorf("%s: regions %d, want %d", label, got.FinalRegions, want.FinalRegions)
	}
	if got.ForcedResolutions != want.ForcedResolutions {
		t.Errorf("%s: forced resolutions %d, want %d", label, got.ForcedResolutions, want.ForcedResolutions)
	}
	if fmt.Sprint(got.MergesPerIter) != fmt.Sprint(want.MergesPerIter) {
		t.Errorf("%s: merges/iter %v, want %v", label, got.MergesPerIter, want.MergesPerIter)
	}
}

// TestMaxSquareOptions covers the cap pass-through, including the
// unbounded textbook algorithm and the degenerate 1-pixel cap.
func TestMaxSquareOptions(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	for _, maxSquare := range []int{0, 1, 8, -1} {
		cfg := Config{Threshold: 10, Tie: rag.Random, Seed: 5, MaxSquare: maxSquare}
		want, err := runEngine(Sequential{}, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runEngine(Native{Workers: 4}, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkEqual(t, fmt.Sprintf("cap=%d", maxSquare), want, got)
	}
}

// TestEmptyAndTinyImages exercises the degenerate shapes.
func TestEmptyAndTinyImages(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {1, 1}, {1, 7}, {5, 1}, {2, 2}} {
		im := pixmap.New(dims[0], dims[1])
		for i := range im.Pix {
			im.Pix[i] = uint8(i * 37)
		}
		cfg := Config{Threshold: 10, Tie: rag.Random, Seed: 1}
		want, err := runEngine(Sequential{}, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runEngine(Native{Workers: 4}, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkEqual(t, fmt.Sprintf("%dx%d", dims[0], dims[1]), want, got)
	}
}

func rectScene(w, h int) *pixmap.Image {
	im := pixmap.New(w, h)
	im.FillRect(0, 0, w, h, 30)
	im.FillRect(w/8+1, h/8+1, w-w/8-1, h-h/8-1, 120)
	im.FillRect(w/2, h/4, w-2, h/2, 220)
	return im
}

func oddCrop(w, h int) *pixmap.Image {
	sq := pixmap.Random(max(w, h), 19)
	im, err := sq.SubImage(0, 0, w, h)
	if err != nil {
		panic(err)
	}
	return im
}
