package quadsplit

import (
	"slices"
	"strings"
	"testing"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

// Negative-path tests for Validate: each structural invariant must be
// individually enforced.

func validBase(t *testing.T) (*Result, *pixmap.Image, int) {
	t.Helper()
	im := pixmap.Uniform(8, 5)
	threshold := 0
	res := split(im, threshold, Options{MaxSquare: 4})
	if err := Validate(res, im, threshold); err != nil {
		t.Fatalf("base result invalid: %v", err)
	}
	return res, im, threshold
}

func cloneResult(r *Result) *Result {
	out := *r
	out.Squares = slices.Clone(r.Squares)
	out.Edges = slices.Clone(r.Edges)
	out.Top, out.Bottom = slices.Clone(r.Top), slices.Clone(r.Bottom)
	return &out
}

func TestValidateShapeMismatch(t *testing.T) {
	res, _, threshold := validBase(t)
	other := pixmap.Uniform(4, 5)
	if err := Validate(res, other, threshold); err == nil || !strings.Contains(err.Error(), "match") {
		t.Fatalf("err = %v", err)
	}
}

// TestValidateOutOfRangeLabel: a slot of the top row or of an edge that
// is not a slot of the list is refused.
func TestValidateOutOfRangeLabel(t *testing.T) {
	res, im, threshold := validBase(t)
	for _, lab := range []int32{int32(len(res.Squares)), -1} {
		bad := cloneResult(res)
		bad.Top[3] = lab
		if err := Validate(bad, im, threshold); err == nil {
			t.Fatalf("top row slot %d accepted", lab)
		}
		bad = cloneResult(res)
		bad.Edges[1] = lab
		if err := Validate(bad, im, threshold); err == nil || !strings.Contains(err.Error(), "not two slots") {
			t.Fatalf("edge to slot %d: err = %v", lab, err)
		}
	}
}

// TestValidateNonRootLabel: a bottom-row slot of a listed square that
// does not cover the pixel is refused.
func TestValidateNonRootLabel(t *testing.T) {
	res, im, threshold := validBase(t)
	bad := cloneResult(res)
	// Pixel (0,4) lies in square 2, the 4×4 at (0,4); square 3 is the one
	// at (4,4).
	bad.Bottom[0] = 3
	if err := Validate(bad, im, threshold); err == nil || !strings.Contains(err.Error(), "bottom row") {
		t.Fatalf("non-root slot: err = %v", err)
	}
}

// TestValidateWrongEdges: an edge listed twice, an edge between squares
// that do not touch, and a missing edge are each refused.
func TestValidateWrongEdges(t *testing.T) {
	res, im, threshold := listBase(t)
	bad := cloneResult(res)
	bad.Edges = append(bad.Edges, bad.Edges[2], bad.Edges[3])
	if err := Validate(bad, im, threshold); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate edge: err = %v", err)
	}
	bad = cloneResult(res)
	bad.Edges = append(bad.Edges, 0, int32(len(bad.Squares)-1))
	if err := Validate(bad, im, threshold); err == nil || !strings.Contains(err.Error(), "do not touch") {
		t.Fatalf("edge between the first and last squares: err = %v", err)
	}
	bad = cloneResult(res)
	bad.Edges = bad.Edges[2:]
	if err := Validate(bad, im, threshold); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("dropped edge: err = %v", err)
	}
}

// TestValidateOverlappingSquares: two squares over one pixel are refused
// even when the areas add up to the image's.
func TestValidateOverlappingSquares(t *testing.T) {
	im := pixmap.Uniform(4, 5)
	im, _ = im.SubImage(0, 0, 4, 2)
	p := homog.Point(5)
	// The 2×2 at (0,0) holds the 1×1 at (1,0), and (3,1) is uncovered.
	bad := &Result{W: 4, H: 2, MaxSquareUsed: 2, Squares: []Square{
		{ID: 0, IV: p, Log2: 1}, {ID: 1, IV: p}, {ID: 2, IV: p}, {ID: 3, IV: p}, {ID: 6, IV: p},
	}}
	if err := Validate(bad, im, 0); err == nil || !strings.Contains(err.Error(), "lies in squares 0 and 1") {
		t.Fatalf("overlapping squares: err = %v", err)
	}
}

func TestValidateMisalignedSquare(t *testing.T) {
	res, im, threshold := validBase(t)
	bad := cloneResult(res)
	// Fabricate a "square" at a misaligned origin: move square 1, the 4×4
	// block at (4,0), to pixel (5,0) with side 2. The labels are checked
	// after the list, so they can stay as they are.
	bad.Squares[1].ID, bad.Squares[1].Log2 = int32(im.Index(5, 0)), 1
	if err := Validate(bad, im, threshold); err == nil {
		t.Fatal("misaligned/incoherent square accepted")
	}
}

func TestValidateInhomogeneousSquare(t *testing.T) {
	im := pixmap.Uniform(4, 5)
	threshold := 0
	res := split(im, threshold, Options{MaxSquare: 2})
	im.Set(0, 0, 200) // corrupt the image after splitting
	if err := Validate(res, im, threshold); err == nil {
		t.Fatal("inhomogeneous square accepted")
	}
}

func TestValidateMissedCombine(t *testing.T) {
	// An all-1×1 labelling of a uniform image violates maximality.
	im := pixmap.Uniform(4, 5)
	threshold := 0
	res := &Result{
		W: 4, H: 4,
		Iterations:    1,
		MaxSquareUsed: 4,
	}
	for i := range 16 {
		res.Squares = append(res.Squares, Square{ID: int32(i), IV: homog.Point(im.Pix[i])})
	}
	err := Validate(res, im, threshold)
	if err == nil || !strings.Contains(err.Error(), "should have been combined") {
		t.Fatalf("maximality violation not caught: %v", err)
	}
}

// listBase is a split of a random image with squares of several sizes,
// so list corruptions have neighbours to collide with.
func listBase(t *testing.T) (*Result, *pixmap.Image, int) {
	t.Helper()
	im := oddRandom(16, 12, 3)
	for i := range im.Pix {
		im.Pix[i] &= 0x0F
	}
	threshold := 10
	res := split(im, threshold, Options{MaxSquare: 8})
	if err := Validate(res, im, threshold); err != nil {
		t.Fatalf("base result invalid: %v", err)
	}
	if len(res.Squares) < 3 || len(res.Squares) == len(im.Pix) {
		t.Fatalf("base split has %d squares; the test needs a mix of sizes", len(res.Squares))
	}
	return res, im, threshold
}

func TestValidateWrongRecordedInterval(t *testing.T) {
	res, im, threshold := listBase(t)
	k := len(res.Squares) / 2
	for _, iv := range []homog.Interval{
		{Lo: res.Squares[k].IV.Lo, Hi: res.Squares[k].IV.Hi + 1},
		{Lo: res.Squares[k].IV.Lo + 1, Hi: res.Squares[k].IV.Hi + 1},
	} {
		bad := cloneResult(res)
		bad.Squares[k].IV = iv
		if err := Validate(bad, im, threshold); err == nil || !strings.Contains(err.Error(), "records interval") {
			t.Fatalf("square %d recorded as %v: err = %v", k, iv, err)
		}
	}
}

func TestValidateSwappedSquares(t *testing.T) {
	res, im, threshold := listBase(t)
	bad := cloneResult(res)
	k := len(bad.Squares) / 2
	bad.Squares[k], bad.Squares[k+1] = bad.Squares[k+1], bad.Squares[k]
	if err := Validate(bad, im, threshold); err == nil || !strings.Contains(err.Error(), "not above") {
		t.Fatalf("swapped squares %d and %d: err = %v", k, k+1, err)
	}
}

func TestValidateDroppedSquare(t *testing.T) {
	res, im, threshold := listBase(t)
	for _, k := range []int{0, len(res.Squares) / 2, len(res.Squares) - 1} {
		bad := cloneResult(res)
		bad.Squares = append(bad.Squares[:k], bad.Squares[k+1:]...)
		if err := Validate(bad, im, threshold); err == nil || !strings.Contains(err.Error(), "cover") {
			t.Fatalf("square %d dropped: err = %v", k, err)
		}
	}
}
