package quadsplit

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

// split runs Split under a background context, which never cancels, so
// the error it drops is always nil.
func split(im *pixmap.Image, threshold int, opt Options) *Result {
	res, _ := Split(context.Background(), im, threshold, opt)
	return res
}

// paperFigure1 is the 4×4 image of the paper's Figure 1, evaluated with
// threshold T=3.
func paperFigure1(t *testing.T) *pixmap.Image {
	t.Helper()
	im, err := pixmap.FromRows([][]uint8{
		{6, 7, 1, 3},
		{8, 6, 5, 4},
		{8, 8, 6, 5},
		{7, 8, 6, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestPaperFigure1(t *testing.T) {
	// Figure 1(b): after the first and final split iteration the NW, SW,
	// and SE 2×2 blocks are squares; the NE quadrant stays four 1×1
	// squares (its range 5−1=4 exceeds T=3).
	im := paperFigure1(t)
	res := split(im, 3, Options{MaxSquare: Unbounded})
	if err := Validate(res, im, 3); err != nil {
		t.Fatal(err)
	}
	if len(res.Squares) != 7 {
		t.Fatalf("squares = %d, want 7 (three 2x2 + four 1x1)", len(res.Squares))
	}
	sizes := map[int]int{}
	for _, s := range res.Squares {
		sizes[s.Side()]++
	}
	if sizes[2] != 3 || sizes[1] != 4 {
		t.Fatalf("size histogram = %v", sizes)
	}
	// The 4×4 pass runs, combines nothing, and terminates the stage:
	// two executed iterations.
	if res.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2", res.Iterations)
	}
	// The NE quadrant pixels label themselves.
	labels := ids(res)
	for _, p := range [][2]int{{2, 0}, {3, 0}, {2, 1}, {3, 1}} {
		i := im.Index(p[0], p[1])
		if labels[i] != int32(i) {
			t.Errorf("NE pixel (%d,%d) labelled %d, want itself", p[0], p[1], labels[i])
		}
	}
}

func TestUniformImage(t *testing.T) {
	// Whole image one square: log2(N) iterations, 1 square.
	im := pixmap.Uniform(16, 9)
	res := split(im, 0, Options{MaxSquare: Unbounded})
	if len(res.Squares) != 1 {
		t.Fatalf("squares = %d", len(res.Squares))
	}
	if res.Iterations != 4 {
		t.Fatalf("iterations = %d, want log2(16)=4", res.Iterations)
	}
	for _, l := range slotRaster(res) {
		if l != 0 {
			t.Fatal("slots not all 0")
		}
	}
	if len(res.Edges) != 0 {
		t.Fatalf("one square has edges %v", res.Edges)
	}
}

func TestCheckerboardWorstCase(t *testing.T) {
	// No 2×2 block is homogeneous: one iteration, N² squares.
	im := pixmap.Checkerboard(8, 0, 255)
	res := split(im, 10, Options{MaxSquare: Unbounded})
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
	if len(res.Squares) != 64 {
		t.Fatalf("squares = %d, want 64", len(res.Squares))
	}
}

func TestCapSemantics(t *testing.T) {
	im := pixmap.Uniform(64, 7)
	// Default cap is N/8 = 8 → squares of side 8, 64 of them, and
	// log2(8)=3 iterations (every pass combines, stage stops at the cap).
	res := split(im, 0, Options{})
	if res.MaxSquareUsed != 8 {
		t.Fatalf("default cap = %d, want 8", res.MaxSquareUsed)
	}
	if len(res.Squares) != 64 || res.Iterations != 3 {
		t.Fatalf("squares=%d iterations=%d, want 64/3", len(res.Squares), res.Iterations)
	}
	// Explicit cap 16.
	res = split(im, 0, Options{MaxSquare: 16})
	if res.MaxSquareUsed != 16 || len(res.Squares) != 16 {
		t.Fatalf("cap 16: used=%d squares=%d", res.MaxSquareUsed, len(res.Squares))
	}
	// Non-power-of-two cap rounds down.
	res = split(im, 0, Options{MaxSquare: 12})
	if res.MaxSquareUsed != 8 {
		t.Fatalf("cap 12 rounds to %d, want 8", res.MaxSquareUsed)
	}
	// Unbounded merges to the whole image.
	res = split(im, 0, Options{MaxSquare: Unbounded})
	if len(res.Squares) != 1 {
		t.Fatalf("unbounded squares = %d", len(res.Squares))
	}
}

func TestEffectiveCap(t *testing.T) {
	cases := []struct {
		opt  int
		w, h int
		want int
	}{
		{0, 128, 128, 16},
		{0, 256, 256, 32},
		{0, 64, 64, 8},
		{0, 8, 8, 1},
		{Unbounded, 128, 128, 128},
		{Unbounded, 100, 100, 64},
		{4, 128, 128, 4},
		{500, 128, 128, 128},
		{0, 0, 0, 1},
	}
	for _, c := range cases {
		if got := EffectiveCap(Options{MaxSquare: c.opt}, c.w, c.h); got != c.want {
			t.Errorf("EffectiveCap(%d, %dx%d) = %d, want %d", c.opt, c.w, c.h, got, c.want)
		}
	}
}

// boundaryThresholds are the thresholds the boundary tests run: the
// smallest two, the largest two a uint8 range can reach, and one beyond.
var boundaryThresholds = []int{0, 1, 254, 255, 300}

// quadOf returns the side×side image whose four quadrants are uniform at
// 0, 0, 0 and r: a 2×2 block of range r at side 2, and at side 4 a quad
// of four range-0 blocks whose union has range r.
func quadOf(side int, r uint8) *pixmap.Image {
	im := pixmap.New(side, side)
	h := side / 2
	im.FillRect(h, h, side, side, r)
	return im
}

// TestThresholdBoundary: a 2×2 block (level 1) and a 4×4 quad (level 2)
// of range exactly T combine into one square, and Validate accepts the
// result under T; range T+1 stays four squares, which Validate accepts
// under T and rejects under T+1, where they should have combined. A
// square of range T+1 is rejected under T. Range T+1 has no uint8 image
// once T ≥ 255, and range 255 must combine under every such T. The empty
// image, whose interval is empty, validates under every T.
func TestThresholdBoundary(t *testing.T) {
	for _, threshold := range boundaryThresholds {
		empty := pixmap.New(0, 0)
		if err := Validate(split(empty, threshold, Options{}), empty, threshold); err != nil {
			t.Errorf("T=%d/0x0: %v", threshold, err)
		}
		for _, side := range []int{2, 4} {
			name := fmt.Sprintf("T=%d/%dx%d", threshold, side, side)
			im := quadOf(side, uint8(min(threshold, 255)))
			res := split(im, threshold, Options{MaxSquare: Unbounded})
			if len(res.Squares) != 1 {
				t.Errorf("%s: range %d left %d squares, want 1", name, min(threshold, 255), len(res.Squares))
			}
			if err := Validate(res, im, threshold); err != nil {
				t.Errorf("%s: range %d: %v", name, min(threshold, 255), err)
			}
			if threshold >= 255 {
				continue
			}
			im = quadOf(side, uint8(threshold+1))
			res = split(im, threshold, Options{MaxSquare: Unbounded})
			if len(res.Squares) != 4 {
				t.Errorf("%s: range %d left %d squares, want 4", name, threshold+1, len(res.Squares))
			}
			if err := Validate(res, im, threshold); err != nil {
				t.Errorf("%s: range %d: %v", name, threshold+1, err)
			}
			if Validate(res, im, threshold+1) == nil {
				t.Errorf("%s: Validate under T+1 accepted four squares of range T+1 that combine", name)
			}
			if Validate(split(im, threshold+1, Options{MaxSquare: Unbounded}), im, threshold) == nil {
				t.Errorf("%s: Validate accepted a square of range T+1", name)
			}
		}
	}
}

// TestNegativeThresholdCombinesNothing: no range is below 0, so under
// T = −1 every pixel is its own 1×1 square with its point interval, and
// the one pass run combines nothing, at every worker count and cap.
func TestNegativeThresholdCombinesNothing(t *testing.T) {
	for _, im := range []*pixmap.Image{pixmap.Uniform(64, 100), oddRandom(37, 23, 3)} {
		for _, maxSquare := range []int{0, Unbounded} {
			for workers := 1; workers <= 4; workers++ {
				name := fmt.Sprintf("%dx%d/cap=%d/w=%d", im.W, im.H, maxSquare, workers)
				res := split(im, -1, Options{MaxSquare: maxSquare, Workers: workers})
				if res.Iterations != 1 || !slices.Equal(res.CombinedPerIter, []int{0}) {
					t.Errorf("%s: iterations %d, combined %v; want 1, [0]", name, res.Iterations, res.CombinedPerIter)
				}
				if len(res.Squares) != len(im.Pix) {
					t.Fatalf("%s: %d squares for %d pixels", name, len(res.Squares), len(im.Pix))
				}
				for i, sq := range res.Squares {
					want := Square{ID: int32(i), IV: homog.Point(im.Pix[i])}
					if sq != want {
						t.Fatalf("%s: square %d is %+v, want %+v", name, i, sq, want)
					}
				}
				if err := sameEdges(res); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

func TestNonSquareImage(t *testing.T) {
	im := pixmap.New(24, 16) // not powers of two
	im.FillRect(0, 0, 24, 16, 5)
	res := split(im, 0, Options{MaxSquare: Unbounded})
	if err := Validate(res, im, 0); err != nil {
		t.Fatal(err)
	}
	// Largest square is 16 (fits height); 24 = 16 + 8.
	maxSize := 0
	for _, s := range res.Squares {
		maxSize = max(maxSize, s.Side())
	}
	if maxSize != 16 {
		t.Fatalf("largest square = %d, want 16", maxSize)
	}
}

func TestEmptyAndTinyImages(t *testing.T) {
	res := split(pixmap.New(0, 0), 5, Options{})
	if len(res.Squares) != 0 {
		t.Fatal("empty image produced squares")
	}
	im := pixmap.Uniform(1, 3)
	res = split(im, 5, Options{MaxSquare: Unbounded})
	if len(res.Squares) != 1 || res.Iterations != 1 {
		t.Fatalf("1x1 image: squares=%d iterations=%d", len(res.Squares), res.Iterations)
	}
}

func TestSplitInvariantsOnRandomImages(t *testing.T) {
	// Property test: alignment, homogeneity, maximality, full coverage on
	// adversarial inputs, checked by Validate.
	err := quick.Check(func(seed uint64, tRaw uint8, capRaw uint8) bool {
		im := pixmap.Random(32, seed)
		// Smooth the image so some structure emerges.
		for i := range im.Pix {
			im.Pix[i] &= 0x3F
		}
		tVal := int(tRaw % 70)
		capOpt := []int{0, Unbounded, 4, 16}[capRaw%4]
		res := split(im, tVal, Options{MaxSquare: capOpt})
		return Validate(res, im, tVal) == nil
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitDeterministic(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	a := split(im, 10, Options{})
	b := split(im, 10, Options{})
	if !slices.Equal(a.Squares, b.Squares) || !slices.Equal(a.Edges, b.Edges) ||
		!slices.Equal(a.Top, b.Top) || !slices.Equal(a.Bottom, b.Bottom) {
		t.Fatal("split is not deterministic")
	}
}

func TestPaperIterationCounts(t *testing.T) {
	// The tables report 4 split iterations for every 128² image and 5 for
	// every 256² image under the default cap.
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		res := split(im, 10, Options{})
		want := 4
		if id.Size() == 256 {
			want = 5
		}
		if res.Iterations != want {
			t.Errorf("%v: split iterations = %d, want %d", id, res.Iterations, want)
		}
	}
}

func TestCombinedPerIterMonotoneTermination(t *testing.T) {
	// The recorded combine counts must be positive except possibly the
	// final entry (the terminating pass).
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	res := split(im, 10, Options{MaxSquare: Unbounded})
	for i, c := range res.CombinedPerIter {
		last := i == len(res.CombinedPerIter)-1
		if c == 0 && !last {
			t.Fatalf("pass %d combined nothing but the stage continued", i+1)
		}
	}
}

// slotRaster paints r's squares into a raster of their slots: every
// pixel of square k carries k.
func slotRaster(r *Result) []int32 {
	out := make([]int32, r.W*r.H)
	for k, sq := range r.Squares {
		Paint(out, int(sq.ID), sq.Side(), r.W, int32(k))
	}
	return out
}

// ids maps a result's painted slot raster through its list to square
// IDs: each pixel then carries the index of its square's north-west
// pixel.
func ids(r *Result) []int32 {
	out := slotRaster(r)
	for i, lab := range out {
		out[i] = r.Squares[lab].ID
	}
	return out
}

// rasterEdges is the reference edge set of a raster of slots w wide:
// every pair of different slots at 4-adjacent pixels once, smaller slot
// first, in ascending order.
func rasterEdges(slots []int32, w int) [][2]int32 {
	var out [][2]int32
	for i, a := range slots {
		east, south := (i+1)%w != 0, i+w < len(slots)
		for _, j := range [2]int{i + 1, i + w} {
			if j == i+1 && east || j == i+w && south {
				if b := slots[j]; b != a {
					out = append(out, [2]int32{min(a, b), max(a, b)})
				}
			}
		}
	}
	slices.SortFunc(out, cmpEdge)
	return slices.Compact(out)
}

// edgeSet orders each of a flat edge list's pairs smaller slot first and
// sorts the pairs; a pair listed twice stays twice.
func edgeSet(edges []int32) [][2]int32 {
	out := make([][2]int32, 0, len(edges)/2)
	for i := 0; i+1 < len(edges); i += 2 {
		out = append(out, [2]int32{min(edges[i], edges[i+1]), max(edges[i], edges[i+1])})
	}
	slices.SortFunc(out, cmpEdge)
	return out
}

func cmpEdge(a, b [2]int32) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// sameEdges reports the first way r's edges and slot rows differ from the
// reference reading of its painted slot raster: the edge set of
// rasterEdges, each pair once, and the raster's first and last rows.
func sameEdges(r *Result) error {
	slots := slotRaster(r)
	if want, got := rasterEdges(slots, r.W), edgeSet(r.Edges); !slices.Equal(got, want) {
		return fmt.Errorf("edges %v, the slot raster's %v", got, want)
	}
	if r.W == 0 || r.H == 0 {
		if r.Top != nil || r.Bottom != nil {
			return fmt.Errorf("empty image with rows %v and %v", r.Top, r.Bottom)
		}
		return nil
	}
	if !slices.Equal(r.Top, slots[:r.W]) || !slices.Equal(r.Bottom, slots[len(slots)-r.W:]) {
		return fmt.Errorf("rows %v and %v, the slot raster's %v and %v", r.Top, r.Bottom, slots[:r.W], slots[len(slots)-r.W:])
	}
	return nil
}

// enumerate is the per-pixel reading of a split's painted slots, mapped
// to square IDs, that the recorded list must equal: every pixel labelled
// with its own index is a square's root, in raster order; the side is the
// length of the root's run in its row, and the interval the union of the
// square's pixels.
func enumerate(r *Result, im *pixmap.Image) []Square {
	var out []Square
	labels := ids(r)
	for i, lab := range labels {
		if lab != int32(i) {
			continue
		}
		x, y, side := i%r.W, i/r.W, 1
		for x+side < r.W && labels[i+side] == lab {
			side++
		}
		iv := homog.Empty()
		for yy := y; yy < y+side; yy++ {
			for xx := x; xx < x+side; xx++ {
				iv = iv.Union(homog.Point(im.At(xx, yy)))
			}
		}
		out = append(out, Square{ID: lab, IV: iv, Log2: uint8(bits.TrailingZeros(uint(side)))})
	}
	return out
}

// sameList reports the first difference between a recorded list and the
// per-pixel enumeration of the same result.
func sameList(r *Result, im *pixmap.Image) error {
	want := enumerate(r, im)
	if len(r.Squares) != len(want) {
		return fmt.Errorf("%d squares listed, the labels hold %d", len(r.Squares), len(want))
	}
	for k, s := range r.Squares {
		if s != want[k] {
			return fmt.Errorf("square %d is %+v, the labels give %+v", k, s, want[k])
		}
	}
	return nil
}

// TestSquareIsEightBytes pins the list record's size: the split writes
// one per square, so on a noise image, where nearly every pixel is a
// square, the list costs this much per pixel.
func TestSquareIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(Square{}); n != 8 {
		t.Fatalf("Square is %d bytes, want 8", n)
	}
}

// TestSquaresEnumerationMatchesLabels requires the recorded list to
// equal the per-pixel enumeration of its painted slots, and to pass
// Validate,
// on a paper image and on random images of small odd geometries under
// several thresholds and caps, with and without a Scratch (reused across
// the cases, so a stale longer list would show).
func TestSquaresEnumerationMatchesLabels(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	if err := sameList(split(im, 10, Options{}), im); err != nil {
		t.Fatal(err)
	}
	sc := new(Scratch)
	for seed := uint64(0); seed < 12; seed++ {
		for _, dims := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {7, 5}, {16, 16}, {33, 17}, {40, 64}} {
			im := oddRandom(dims[0], dims[1], seed)
			for i := range im.Pix {
				im.Pix[i] &= 0x1F
			}
			for _, threshold := range []int{0, 8, 20, 40} {
				for _, maxSquare := range []int{0, 1, 2, 8, Unbounded} {
					name := fmt.Sprintf("seed=%d/%dx%d/T=%d/cap=%d", seed, dims[0], dims[1], threshold, maxSquare)
					for _, opt := range []Options{{MaxSquare: maxSquare}, {MaxSquare: maxSquare, Scratch: sc}} {
						res := split(im, threshold, opt)
						if err := sameList(res, im); err != nil {
							t.Fatalf("%s scratch=%t: %v", name, opt.Scratch != nil, err)
						}
						// Split sizes the list by this count.
						n := len(im.Pix)
						for _, c := range res.CombinedPerIter {
							n -= 3 * c
						}
						if n != len(res.Squares) {
							t.Fatalf("%s: %d squares, but w·h − 3·%v = %d", name, len(res.Squares), res.CombinedPerIter, n)
						}
						if err := Validate(res, im, threshold); err != nil {
							t.Fatalf("%s scratch=%t: %v", name, opt.Scratch != nil, err)
						}
					}
				}
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	threshold := 10
	res := split(im, threshold, Options{})
	// Corrupt one edge: its second square becomes the next slot.
	k := len(res.Edges) / 2
	res.Edges[k|1]++
	if Validate(res, im, threshold) == nil {
		t.Fatal("Validate accepted a corrupted edge")
	}
}

// TestEdgesMatchSlotRaster requires the split's edges to be the set of
// 4-adjacent slot pairs of its painted slot raster, each pair once, and
// its Top and Bottom to be the raster's first and last rows: on the six
// paper images, and on random images of small odd geometries under
// several thresholds, caps 0, 1, 2, 8 and unbounded, and 1–4 workers,
// with one Scratch reused across the cases, so a stale edge would show.
// An edge list never outgrows the 3 edges per square that Split sizes
// its buffer by.
func TestEdgesMatchSlotRaster(t *testing.T) {
	check := func(name string, res *Result) {
		t.Helper()
		if err := sameEdges(res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Edges) > 6*len(res.Squares) {
			t.Fatalf("%s: %d edges for %d squares", name, len(res.Edges)/2, len(res.Squares))
		}
	}
	sc := new(Scratch)
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		for workers := 1; workers <= 4; workers++ {
			check(fmt.Sprintf("%v/w=%d", id, workers), split(im, 10, Options{Workers: workers, Scratch: sc}))
		}
	}
	for seed := uint64(0); seed < 6; seed++ {
		for _, dims := range [][2]int{{0, 0}, {5, 0}, {1, 1}, {1, 9}, {9, 1}, {7, 5}, {16, 16}, {33, 17}, {40, 64}} {
			im := oddRandom(max(dims[0], 1), max(dims[1], 1), seed)
			im, _ = im.SubImage(0, 0, dims[0], dims[1])
			for i := range im.Pix {
				im.Pix[i] &= 0x1F
			}
			for _, threshold := range []int{0, 8, 20, 40} {
				for _, maxSquare := range []int{0, 1, 2, 8, Unbounded} {
					for workers := 1; workers <= 4; workers++ {
						name := fmt.Sprintf("seed=%d/%dx%d/T=%d/cap=%d/w=%d", seed, dims[0], dims[1], threshold, maxSquare, workers)
						check(name, split(im, threshold, Options{MaxSquare: maxSquare, Workers: workers, Scratch: sc}))
					}
				}
			}
		}
	}
}
