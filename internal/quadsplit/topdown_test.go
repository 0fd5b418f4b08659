package quadsplit

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

// SplitTopDown is the original Horowitz–Pavlidis formulation of the split
// stage: start from the largest aligned block and recursively quarter any
// block that is incomplete or inhomogeneous. It produces exactly the same
// set of maximal homogeneous squares as the paper's bottom-up combining
// pass (a block is a leaf in the recursion iff it is homogeneous and its
// parent quad is not — the same maximality condition). The engines use
// the bottom-up form because it maps to data-parallel strided
// operations; these tests keep this one as the reference it must equal.
//
// Iterations reports the recursion depth explored below the cap plus the
// terminal level, mirroring the bottom-up pass count so the two variants
// are comparable.
func SplitTopDown(im *pixmap.Image, threshold int, opt Options) *Result {
	w, h := im.W, im.H
	res := &Result{
		W: w, H: h,
		MaxSquareUsed: EffectiveCap(opt, w, h),
	}
	if w == 0 || h == 0 {
		return res
	}
	s := &topDown{im: im, threshold: threshold, res: res}
	// Tile the image with cap-sized blocks and recurse into each.
	cap := res.MaxSquareUsed
	for y := 0; y < h; y += cap {
		for x := 0; x < w; x += cap {
			s.recurse(x, y, cap)
		}
	}
	// The recursion claims squares in Z order; the list is in ID order,
	// and the edges and rows are read off the painted slots.
	slices.SortFunc(res.Squares, func(a, b Square) int { return cmp.Compare(a.ID, b.ID) })
	slots := slotRaster(res)
	for _, e := range rasterEdges(slots, w) {
		res.Edges = append(res.Edges, e[0], e[1])
	}
	res.Top, res.Bottom = slots[:w], slots[len(slots)-w:]
	// The bottom-up pass count equals log2(cap / smallest-split-to size)
	// + 1 when anything combined; reuse its semantics by re-deriving from
	// the produced sizes: iterations = log2(largest square) + 1 capped at
	// log2(cap), minimum 1. A pass that combined nothing still counts.
	largest := 1
	for _, sq := range res.Squares {
		largest = max(largest, sq.Side())
	}
	iters := 0
	for 1<<iters < largest {
		iters++
	}
	if largest < cap {
		iters++ // the pass that failed to combine further
	}
	if iters == 0 {
		iters = 1
	}
	res.Iterations = iters
	return res
}

type topDown struct {
	im        *pixmap.Image
	threshold int
	res       *Result
}

// recurse claims block (x, y, size) if it is fully inside the image and
// homogeneous; otherwise it quarters. Size-1 blocks are always claimed.
func (s *topDown) recurse(x, y, size int) {
	if x >= s.im.W || y >= s.im.H {
		return
	}
	if size == 1 {
		s.claim(x, y, 1, homog.Point(s.im.At(x, y)))
		return
	}
	if x+size <= s.im.W && y+size <= s.im.H {
		iv := homog.Empty()
		for yy := y; yy < y+size; yy++ {
			for xx := x; xx < x+size; xx++ {
				iv = iv.Union(homog.Point(s.im.At(xx, yy)))
			}
		}
		if iv.Range() <= s.threshold {
			s.claim(x, y, size, iv)
			return
		}
	}
	half := size / 2
	s.recurse(x, y, half)
	s.recurse(x+half, y, half)
	s.recurse(x, y+half, half)
	s.recurse(x+half, y+half, half)
}

func (s *topDown) claim(x, y, size int, iv homog.Interval) {
	id := int32(y*s.im.W + x)
	s.res.Squares = append(s.res.Squares, Square{ID: id, IV: iv, Log2: uint8(bits.TrailingZeros(uint(size)))})
}

func TestTopDownMatchesBottomUp(t *testing.T) {
	// The two formulations define the same maximal-square partition.
	for _, id := range []pixmap.PaperImageID{pixmap.Image1NestedRects128, pixmap.Image3Circles128} {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		bu := split(im, 10, Options{})
		td := SplitTopDown(im, 10, Options{})
		if len(bu.Squares) != len(td.Squares) {
			t.Fatalf("%v: bottom-up %d squares, top-down %d", id, len(bu.Squares), len(td.Squares))
		}
		if !slices.Equal(ids(bu), ids(td)) {
			t.Fatalf("%v: partitions differ", id)
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
		threshold := int(tRaw % 70)
		opt := Options{MaxSquare: []int{0, Unbounded, 8}[capRaw%3]}
		bu := split(im, threshold, opt)
		td := SplitTopDown(im, threshold, opt)
		if len(bu.Squares) != len(td.Squares) || !slices.Equal(ids(bu), ids(td)) {
			return false
		}
		return slices.Equal(bu.Squares, td.Squares) && Validate(td, im, threshold) == nil
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTopDownNonSquareAndEmpty(t *testing.T) {
	im := pixmap.New(24, 16)
	im.FillRect(0, 0, 24, 16, 9)
	bu := split(im, 0, Options{MaxSquare: Unbounded})
	td := SplitTopDown(im, 0, Options{MaxSquare: Unbounded})
	if !slices.Equal(ids(bu), ids(td)) {
		t.Fatal("non-square image partitions differ")
	}
	empty := SplitTopDown(pixmap.New(0, 0), 0, Options{})
	if len(empty.Squares) != 0 {
		t.Fatal("empty image produced squares")
	}
}
