package quadsplit

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"regiongrow/internal/pixmap"
)

// TestSplitParallelMatchesSequential requires SplitParallel to reproduce
// the sequential Result — labels, square list, iteration counts, per-level
// combine counts, and square count — across image shapes (including
// non-power-of-two and non-square), caps, and worker counts, with and
// without a Scratch.
func TestSplitParallelMatchesSequential(t *testing.T) {
	images := map[string]*pixmap.Image{
		"uniform64":   pixmap.Uniform(64, 100),
		"checker96":   pixmap.Checkerboard(96, 0, 255),
		"gradient128": pixmap.Gradient(128, 255),
		"random100":   pixmap.Random(100, 7),
		"rect96x64":   rectImage(96, 64),
		"odd37x23":    oddRandom(37, 23, 3),
		"tall8x200":   rectImage(8, 200),
		"tiny1x1":     pixmap.Uniform(1, 9),
	}
	for name, im := range images {
		for _, maxSquare := range []int{0, 1, 8, 16, Unbounded} {
			for _, threshold := range []int{0, 10, 300} {
				opt := Options{MaxSquare: maxSquare}
				want := split(im, threshold, opt)
				for _, workers := range []int{1, 2, 3, 8} {
					if workers == 3 {
						opt.Scratch = new(Scratch)
					}
					got, err := SplitParallel(context.Background(), im, threshold, opt, workers)
					label := fmt.Sprintf("%s/cap=%d/T=%d/w=%d", name, maxSquare, threshold, workers)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := sameResult(want, got); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					if err := Validate(got, im, threshold); err != nil {
						t.Errorf("%s: invalid: %v", label, err)
					}
				}
			}
		}
	}
}

func sameResult(want, got *Result) error {
	if want.W != got.W || want.H != got.H {
		return fmt.Errorf("dims %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	if want.Iterations != got.Iterations {
		return fmt.Errorf("iterations %d, want %d", got.Iterations, want.Iterations)
	}
	if want.NumSquares != got.NumSquares {
		return fmt.Errorf("squares %d, want %d", got.NumSquares, want.NumSquares)
	}
	if want.MaxSquareUsed != got.MaxSquareUsed {
		return fmt.Errorf("cap %d, want %d", got.MaxSquareUsed, want.MaxSquareUsed)
	}
	if len(want.CombinedPerIter) != len(got.CombinedPerIter) {
		return fmt.Errorf("combined %v, want %v", got.CombinedPerIter, want.CombinedPerIter)
	}
	for i := range want.CombinedPerIter {
		if want.CombinedPerIter[i] != got.CombinedPerIter[i] {
			return fmt.Errorf("combined %v, want %v", got.CombinedPerIter, want.CombinedPerIter)
		}
	}
	for i := range want.Labels {
		if want.Labels[i] != got.Labels[i] {
			return fmt.Errorf("label[%d] = %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	if !slices.Equal(want.Squares, got.Squares) {
		return fmt.Errorf("square list differs: %d squares, want %d", len(got.Squares), len(want.Squares))
	}
	return nil
}

func oddRandom(w, h int, seed uint64) *pixmap.Image {
	sq := pixmap.Random(max(w, h), seed)
	im, err := sq.SubImage(0, 0, w, h)
	if err != nil {
		panic(err)
	}
	return im
}

func rectImage(w, h int) *pixmap.Image {
	im := pixmap.New(w, h)
	im.FillRect(0, 0, w, h, 20)
	im.FillRect(w/4, h/4, 3*w/4, 3*h/4, 200)
	return im
}
