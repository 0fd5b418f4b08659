package quadsplit

import (
	"slices"
	"testing"
	"testing/quick"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

func TestTopDownMatchesBottomUp(t *testing.T) {
	// The two formulations define the same maximal-square partition.
	for _, id := range []pixmap.PaperImageID{pixmap.Image1NestedRects128, pixmap.Image3Circles128} {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		crit := homog.NewRange(10)
		bu := split(im, crit, Options{})
		td := SplitTopDown(im, crit, Options{})
		if bu.NumSquares != td.NumSquares {
			t.Fatalf("%v: bottom-up %d squares, top-down %d", id, bu.NumSquares, td.NumSquares)
		}
		for i := range bu.Labels {
			if bu.Labels[i] != td.Labels[i] {
				t.Fatalf("%v: partitions differ at pixel %d", id, i)
			}
		}
		if !slices.Equal(bu.Squares, td.Squares) {
			t.Fatalf("%v: square lists differ", id)
		}
		if bu.Iterations != td.Iterations {
			t.Fatalf("%v: iteration accounting differs: %d vs %d", id, bu.Iterations, td.Iterations)
		}
	}
}

func TestTopDownMatchesBottomUpProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, tRaw, capRaw uint8) bool {
		im := pixmap.Random(32, seed)
		for i := range im.Pix {
			im.Pix[i] &= 0x3F
		}
		crit := homog.NewRange(int(tRaw % 70))
		opt := Options{MaxSquare: []int{0, Unbounded, 8}[capRaw%3]}
		bu := split(im, crit, opt)
		td := SplitTopDown(im, crit, opt)
		if bu.NumSquares != td.NumSquares {
			return false
		}
		for i := range bu.Labels {
			if bu.Labels[i] != td.Labels[i] {
				return false
			}
		}
		return slices.Equal(bu.Squares, td.Squares) && Validate(td, im, crit) == nil
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTopDownNonSquareAndEmpty(t *testing.T) {
	im := pixmap.New(24, 16)
	im.FillRect(0, 0, 24, 16, 9)
	crit := homog.NewRange(0)
	bu := split(im, crit, Options{MaxSquare: Unbounded})
	td := SplitTopDown(im, crit, Options{MaxSquare: Unbounded})
	for i := range bu.Labels {
		if bu.Labels[i] != td.Labels[i] {
			t.Fatal("non-square image partitions differ")
		}
	}
	empty := SplitTopDown(pixmap.New(0, 0), crit, Options{})
	if empty.NumSquares != 0 {
		t.Fatal("empty image produced squares")
	}
}
