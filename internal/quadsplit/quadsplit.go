package quadsplit

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

// Unbounded disables the square-size cap.
const Unbounded = -1

// Options configure the split stage.
type Options struct {
	// MaxSquare caps the side of produced squares. 0 selects the paper's
	// default of max(N/8, 1) rounded down to a power of two, where N is
	// the larger image dimension; Unbounded (−1) removes the cap. Any
	// other value is rounded down to a power of two.
	MaxSquare int
	// Workers bounds the goroutines the split runs on: the image is cut
	// into at most Workers full-width bands, each a whole number of cap
	// rows tall, and every level pass and the claim run band by band on
	// goroutines. A value ≤ 1 runs one band on the calling goroutine.
	Workers int
	// Scratch, when non-nil, supplies reusable buffers for the result's
	// square list, edge list and slot rows, and for the claim's walk. The
	// returned Result then aliases the scratch: the caller owns both and
	// must not start another split with the same Scratch while the Result
	// is live.
	Scratch *Scratch
}

// Scratch is a reusable buffer set for the split stage's result. The zero
// value is ready to use; buffers grow to the largest image seen and are
// retained across runs, which is what lets a pooled caller split
// same-size images without allocating a result. A Scratch serves one
// split at a time. It holds no pixel raster: the result is the square
// list and its edges, and the walk keeps four slot rows per band. The
// level passes' blocks are not kept here either: they are dead once the
// claim is done, and pooled beside the result they would stay live for
// as long as the result does.
type Scratch struct {
	squares []Square
	edges   []int32
	// walk holds each band's four rows of w: below, side, front and top
	// (see band.claim).
	walk []int32
}

// grown returns *buf resized to n, reallocating only on growth.
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Square is one homogeneous square region as the split records it, in
// eight bytes: its ID, the linear index of its north-west pixel in the
// split image (the paper's array encoding), its intensity interval, and
// the log2 of its side.
type Square struct {
	ID   int32
	IV   homog.Interval
	Log2 uint8
}

// Side returns the square's side length.
func (s Square) Side() int { return 1 << s.Log2 }

// Result is the outcome of the split stage. A square's slot is its index
// in Squares; Edges, Top and Bottom name squares by slot.
type Result struct {
	W, H int
	// Squares lists every square once, in ascending ID order: raster
	// order of the north-west corners, which is the order in which a
	// graph build meets them, so a square's slot is also its slot in the
	// graph built from the list.
	Squares []Square
	// Edges lists every pair of 4-adjacent squares once, as flat slot
	// pairs: edge i joins slots Edges[2i] and Edges[2i+1].
	Edges []int32
	// Top and Bottom hold the slot of the square over each pixel of the
	// image's first and last rows: what a graph build of the next or the
	// previous band stitches against. Both are nil for an empty image.
	Top, Bottom []int32
	// Iterations is the number of combining passes executed, counting a
	// final pass that combines nothing (the paper's convention: the best
	// case, an image with no combinable pixels, costs one iteration).
	Iterations int
	// CombinedPerIter records how many quad-blocks each pass combined.
	CombinedPerIter []int
	// MaxSquareUsed is the effective cap after defaulting.
	MaxSquareUsed int
}

// EffectiveCap resolves Options.MaxSquare against the image dimensions,
// applying the paper's N/8 default and rounding to a power of two. The
// data-parallel and message-passing engines share it so all engines agree
// on the split semantics.
func EffectiveCap(opt Options, w, h int) int {
	n := max(w, h)
	cap := opt.MaxSquare
	switch {
	case cap == Unbounded || cap >= n:
		cap = prevPow2(max(n, 1))
	case cap == 0:
		cap = max(prevPow2(n)/8, 1)
	default:
		cap = max(prevPow2(cap), 1)
	}
	return cap
}

func prevPow2(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << (bits.Len(uint(v)) - 1)
}

// level is one band's blocks of side s = 2^l that lie wholly inside the
// band: block (bx, by) covers pixels [bx·s, (bx+1)·s) × [y0+by·s,
// y0+(by+1)·s), where y0 is the band's first row, and lo and hi hold the
// blocks' pixel ranges, row by row. Level 0 is the band's raster.
type level struct {
	bw, bh int
	lo, hi []uint8
}

// solid reports whether block (bx, by) lies inside the band and has a
// range of at most threshold. A block's range bounds each child's, so the
// four children of a solid block are solid too.
func (lv *level) solid(bx, by, threshold int) bool {
	if bx >= lv.bw || by >= lv.bh {
		return false
	}
	i := by*lv.bw + bx
	return int(lv.hi[i])-int(lv.lo[i]) <= threshold
}

// band is one full-width strip of the image, rows [y0, y1), a whole
// number of cap rows tall, with the blocks its level passes built.
type band struct {
	y0, y1 int
	// levels[l] holds the band's level-l blocks.
	levels []level
	// combined is how many blocks the band's last pass combined, and
	// solid how many its passes combined in all.
	combined, solid int
	// first is the slot of the band's first square.
	first int
	// edges receives the claim's edges. below, side, front and top are
	// the claim's rows of w slots (see claim); front ends as the band's
	// bottom row.
	edges                   []int32
	below, side, front, top []int32
}

// Split runs the split stage under threshold T: a block combines when its
// pixel range is at most threshold. It is the reference implementation
// against which the data-parallel and message-passing engines are
// verified. It checks ctx on the calling goroutine before every level
// pass and every band join, and returns (nil, ctx.Err()) when the
// context is done; cancellation never alters a completed result. With
// opt.Workers above 1 the passes and the claim run in row bands on
// goroutines (see the package doc), all of which have exited when Split
// returns; the Result is the same for every worker count.
func Split(ctx context.Context, im *pixmap.Image, threshold int, opt Options) (*Result, error) {
	w, h := im.W, im.H
	res := &Result{
		W: w, H: h,
		MaxSquareUsed: EffectiveCap(opt, w, h),
	}
	sc := opt.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	if w == 0 || h == 0 {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	maxLevel := bits.Len(uint(res.MaxSquareUsed)) - 1
	capRows := (h + res.MaxSquareUsed - 1) / res.MaxSquareUsed
	bands := make([]band, min(max(opt.Workers, 1), capRows))
	for i := range bands {
		y0 := i * capRows / len(bands) * res.MaxSquareUsed
		y1 := min((i+1)*capRows/len(bands)*res.MaxSquareUsed, h)
		pix := im.Pix[y0*w : y1*w]
		bands[i] = band{y0: y0, y1: y1, levels: make([]level, 1, maxLevel+1)}
		bands[i].levels[0] = level{bw: w, bh: y1 - y0, lo: pix, hi: pix}
	}

	peak := 0 // highest level with at least one solid block
	for l := 1; l <= maxLevel; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inBands(bands, func(b *band) { b.pass(l, threshold) })
		combined := 0
		for i := range bands {
			combined += bands[i].combined
		}
		res.Iterations++
		res.CombinedPerIter = append(res.CombinedPerIter, combined)
		if combined == 0 {
			break
		}
		peak = l
		// The paper's other termination condition, the whole image one
		// square, needs a solid block of side w = h. No block is larger
		// than the cap, and the cap is at most max(w, h), so it can only
		// hold at the cap's level, where the loop ends anyway.
	}
	// Degenerate 1×1-cap or 1-pixel image: the stage still "runs" once in
	// the paper's accounting (it must discover nothing combines).
	if res.Iterations == 0 {
		res.Iterations = 1
		res.CombinedPerIter = append(res.CombinedPerIter, 0)
	}

	// Each solid block is a square or one of the four children of a
	// solid block a level up, so a band's pixels, one square each, lose
	// three squares for every solid block in the band at every level.
	// The bands' counts in order give each band its first slot, and
	// every band claims straight into the shared list.
	//
	// A band's squares tile it, and the adjacency graph of a tiling of a
	// rectangle by n rectangles has at most 3n−3 edges (Euler's formula:
	// every corner inside the tiling meets three or four sides), so band
	// i walks into its own part of one edge buffer, 6·n_i slots long,
	// after room for the w edges at most that stitch it to band i−1.
	n := 0
	for i := range bands {
		bands[i].first = n
		n += (bands[i].y1-bands[i].y0)*w - 3*bands[i].solid
	}
	res.Squares = grown(&sc.squares, n)
	edges := grown(&sc.edges, 6*n+2*w*(len(bands)-1))
	walk := grown(&sc.walk, 4*w*len(bands))
	for i := range bands {
		b, end := &bands[i], n
		if i+1 < len(bands) {
			end = bands[i+1].first
		}
		at := 6*b.first + 2*w*i
		b.edges = edges[at : at : at+6*(end-b.first)]
		rows := walk[4*w*i:]
		b.below, b.side, b.front, b.top = rows[:w], rows[w:2*w], rows[2*w:3*w], rows[3*w:4*w]
	}
	inBands(bands, func(b *band) { b.claim(peak, threshold, w, res.Squares) })

	// Join the bands' edges in order, each band after its seam with the
	// band above, moving each down the buffer: what precedes band i holds
	// at most 3 edges per square and w per seam above it, so it never
	// overtakes band i's part.
	res.Edges = bands[0].edges
	if len(bands) > 1 {
		res.Edges = edges[:len(bands[0].edges)]
		for i := 1; i < len(bands); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res.Edges = Stitch(res.Edges, bands[i-1].front, bands[i].top)
			res.Edges = append(res.Edges, bands[i].edges...)
		}
	}
	res.Top, res.Bottom = bands[0].top, bands[len(bands)-1].front
	return res, nil
}

// Stitch appends to edges the edges between two adjacent rows of slots,
// above[x] over below[x] for every x: one edge (above[x], below[x]) per
// run of equal pairs. Rows from the two sides of a cap-aligned cut, such
// as one band's Bottom and the next band's Top, never share a square, so
// a run is exactly one pair of squares that touch across the cut, and
// each such pair is one run, since both squares span one run of columns.
func Stitch(edges, above, below []int32) []int32 {
	for x := 0; x < len(below); {
		a, b := above[x], below[x]
		for x < len(below) && above[x] == a && below[x] == b {
			x++
		}
		edges = append(edges, a, b)
	}
	return edges
}

// Paint fills the n×n square of buf whose north-west pixel is buf[at]
// with v, in rows of width: a loop fills the top row and copy repeats it
// down the square. A loop over every pixel ran stream-16mp's pass 2 30%
// slower or faster with where the linker happened to place it, and
// inside a square walk it spilled its index on every pixel.
func Paint[T uint8 | int32](buf []T, at, n, width int, v T) {
	top := buf[at : at+n]
	for i := range top {
		top[i] = v
	}
	for row := at + width; row < at+n*width; row += width {
		copy(buf[row:row+n], top)
	}
}

// inBands runs f on every band, the first on the calling goroutine and
// each other on its own, and returns once all have. A single band, as in
// every sequential run, skips the fan-out: on the paper's small images its
// set-up showed as ~2% more CPU per segmentation (2-vCPU host).
func inBands(bands []band, f func(b *band)) {
	if len(bands) == 1 {
		f(&bands[0])
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < len(bands); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(&bands[i])
		}()
	}
	f(&bands[0])
	wg.Wait()
}

// pass runs the band's level-l combining pass and records how many blocks
// it combined. Each row pair of level l−1 folds into a row of level l in
// one kernel call, 8 blocks per word: homog.FoldPixelRows at level 1,
// where lo and hi are both the raster, so each pixel word is loaded and
// compared once, and homog.FoldBlockRows above it. A scalar tail takes
// the last bw mod 8 blocks of each row.
func (b *band) pass(l, threshold int) {
	prev := &b.levels[l-1]
	cur := level{bw: prev.bw / 2, bh: prev.bh / 2}
	cur.lo, cur.hi = make([]uint8, cur.bw*cur.bh), make([]uint8, cur.bw*cur.bh)
	combined := 0
	for by := 0; by < cur.bh; by++ {
		a, c, row := 2*by*prev.bw, (2*by+1)*prev.bw, by*cur.bw
		lo, hi := cur.lo[row:row+cur.bw], cur.hi[row:row+cur.bw]
		var k, bx int
		if l == 1 {
			k, bx = homog.FoldPixelRows(prev.lo[a:c], prev.lo[c:c+prev.bw], lo, hi, threshold)
		} else {
			k, bx = homog.FoldBlockRows(prev.lo[a:c], prev.lo[c:c+prev.bw], prev.hi[a:c], prev.hi[c:c+prev.bw], lo, hi, threshold)
		}
		combined += k
		for ; bx < cur.bw; bx++ {
			i, j := a+2*bx, c+2*bx
			lo[bx] = min(prev.lo[i], prev.lo[i+1], prev.lo[j], prev.lo[j+1])
			hi[bx] = max(prev.hi[i], prev.hi[i+1], prev.hi[j], prev.hi[j+1])
			if int(hi[bx])-int(lo[bx]) <= threshold {
				combined++
			}
		}
	}
	b.levels = append(b.levels, cur)
	b.combined = combined
	b.solid += combined
}

// claim records the band's squares into list from slot b.first, and the
// edges between them into b.edges, row by row. A solid block's four
// children are solid, so a block lies inside a larger square exactly
// when its parent block is solid. The walk keeps three rows of w slots:
// below[x] is the row under, and side[x] the side of, the last square
// recorded with its west column at x, and front[x] the slot of the square
// over pixel (x, y−1), then (x, y). Each row's walk stops only at west
// columns: a stop whose square started above jumps its side, and any
// other stop is a new square's north-west corner, whose side the climb
// through the levels finds once, while the parent block is solid. The
// walk meets north-west corners in raster order, so the list comes out in
// ascending ID order with no sort.
//
// Every 4-adjacent pair of squares is recorded once. A new square below
// the band's first row records one edge per run of front over its top
// row: the squares over it, met when the lower square appears. Two
// consecutive stops record their edge only when one of them is new on
// the row: the first row both squares cover. The band's first front row
// is copied into top, and the last stays in front.
func (b *band) claim(peak, threshold, w int, list []Square) {
	levels, slot := b.levels, int32(b.first)
	below, side, front, edges := b.below, b.side, b.front, b.edges
	clear(below)
	for y := b.y0; y < b.y1; y++ {
		by := y - b.y0
		prev, prevNew := int32(-1), false
		for x := 0; x < w; {
			if int(below[x]) > y {
				cur := front[x]
				if prevNew {
					edges = append(edges, prev, cur)
				}
				prev, prevNew = cur, false
				x += int(side[x])
				continue
			}
			l := 0
			for l < peak && levels[l+1].solid(x>>(l+1), by>>(l+1), threshold) {
				l++
			}
			s := 1 << l
			lv := &levels[l]
			i := (by>>l)*lv.bw + x>>l
			list[slot] = Square{ID: int32(y*w + x), IV: homog.Interval{Lo: lv.lo[i], Hi: lv.hi[i]}, Log2: uint8(l)}
			if prev >= 0 {
				edges = append(edges, prev, slot)
			}
			run := front[x : x+s]
			if y > b.y0 {
				north := run[0]
				edges = append(edges, north, slot)
				for _, n := range run[1:] {
					if n != north {
						north = n
						edges = append(edges, north, slot)
					}
				}
			}
			for j := range run {
				run[j] = slot
			}
			below[x], side[x] = int32(y+s), int32(s)
			prev, prevNew = slot, true
			slot++
			x += s
		}
		if y == b.y0 {
			copy(b.top, front)
		}
	}
	b.edges = edges
}

// Validate checks the structural invariants of a split result against the
// source image and threshold T. It returns the first violation found.
//
// Invariants:
//  1. The square list is in strictly ascending ID order; every square is
//     aligned to its power-of-two size, within the image and within the
//     cap; and the areas sum to W·H.
//  2. No two squares share a pixel. With the area sum, the list tiles the
//     image exactly, which paints a raster of slots: every pixel of
//     square k carries k.
//  3. Every recorded interval is the union of its square's pixels, and
//     every square's pixel range is at most threshold.
//  4. Maximality: if the four siblings of an aligned quad-block are all
//     squares of equal size < cap, their union's range exceeds threshold
//     (otherwise the split would have combined them).
//  5. Edges lists each pair of different slots that are 4-adjacent in
//     the slot raster exactly once, and no other pair; Top and Bottom
//     are the raster's first and last rows.
func Validate(r *Result, im *pixmap.Image, threshold int) error {
	w, h := r.W, r.H
	if w != im.W || h != im.H {
		return fmt.Errorf("quadsplit: result %dx%d does not match image %dx%d", w, h, im.W, im.H)
	}
	area := 0
	for k, s := range r.Squares {
		if k > 0 && s.ID <= r.Squares[k-1].ID {
			return fmt.Errorf("quadsplit: square %d has ID %d, not above square %d's %d", k, s.ID, k-1, r.Squares[k-1].ID)
		}
		if s.ID < 0 || int(s.ID) >= w*h {
			return fmt.Errorf("quadsplit: square %d has out-of-range ID %d", k, s.ID)
		}
		x, y, size := int(s.ID)%w, int(s.ID)/w, s.Side()
		if size <= 0 || size > r.MaxSquareUsed {
			return fmt.Errorf("quadsplit: square at (%d,%d) of side 2^%d exceeds cap %d", x, y, s.Log2, r.MaxSquareUsed)
		}
		if x%size != 0 || y%size != 0 {
			return fmt.Errorf("quadsplit: square at (%d,%d) size %d is misaligned", x, y, size)
		}
		if x+size > w || y+size > h {
			return fmt.Errorf("quadsplit: square at (%d,%d) size %d exceeds image", x, y, size)
		}
		area += size * size
	}
	if area != w*h {
		return fmt.Errorf("quadsplit: squares cover %d pixels, image has %d", area, w*h)
	}
	slots := make([]int32, w*h)
	for i := range slots {
		slots[i] = -1
	}
	for k, s := range r.Squares {
		x, y, size := int(s.ID)%w, int(s.ID)/w, s.Side()
		iv := homog.Empty()
		for yy := y; yy < y+size; yy++ {
			for xx := x; xx < x+size; xx++ {
				if o := slots[yy*w+xx]; o >= 0 {
					return fmt.Errorf("quadsplit: pixel (%d,%d) lies in squares %d and %d", xx, yy, o, k)
				}
				slots[yy*w+xx] = int32(k)
				iv = iv.Union(homog.Point(im.Pix[yy*w+xx]))
			}
		}
		if iv != s.IV {
			return fmt.Errorf("quadsplit: square at (%d,%d) size %d records interval %v, its pixels span %v", x, y, size, s.IV, iv)
		}
		if iv.Range() > threshold {
			return fmt.Errorf("quadsplit: square at (%d,%d) size %d is inhomogeneous: %v", x, y, size, iv)
		}
	}
	// Maximality of sibling quads.
	for _, s := range r.Squares {
		x, y, size := int(s.ID)%w, int(s.ID)/w, s.Side()
		if size >= r.MaxSquareUsed {
			continue
		}
		if x%(2*size) != 0 || y%(2*size) != 0 || x+2*size > w || y+2*size > h {
			continue // s is not the NW sibling of a quad inside the image
		}
		union := s.IV
		all := true
		for _, id := range [3]int{y*w + x + size, (y+size)*w + x, (y+size)*w + x + size} {
			q := r.Squares[slots[id]]
			if q.ID != int32(id) || q.Log2 != s.Log2 {
				all = false
				break
			}
			union = union.Union(q.IV)
		}
		if all && union.Range() <= threshold {
			return fmt.Errorf("quadsplit: quad at (%d,%d) size %d should have been combined", x, y, 2*size)
		}
	}
	return validateEdges(r, slots)
}

// validateEdges checks invariant 5 of Validate against the slot raster.
func validateEdges(r *Result, slots []int32) error {
	w, h := r.W, r.H
	if h > 0 && w > 0 && (!slices.Equal(r.Top, slots[:w]) || !slices.Equal(r.Bottom, slots[(h-1)*w:])) {
		return fmt.Errorf("quadsplit: top row %v and bottom row %v, the squares give %v and %v", r.Top, r.Bottom, slots[:w], slots[(h-1)*w:])
	}
	// An edge's key is its slot pair, the smaller slot first.
	key := func(a, b int32) uint64 { return uint64(min(a, b))<<32 | uint64(max(a, b)) }
	var want []uint64
	for i, a := range slots {
		if (i+1)%w != 0 && slots[i+1] != a {
			want = append(want, key(a, slots[i+1]))
		}
		if i+w < len(slots) && slots[i+w] != a {
			want = append(want, key(a, slots[i+w]))
		}
	}
	slices.Sort(want)
	want = slices.Compact(want)
	if len(r.Edges)%2 != 0 {
		return fmt.Errorf("quadsplit: %d edge slots, not pairs", len(r.Edges))
	}
	got := make([]uint64, 0, len(r.Edges)/2)
	for i := 0; i < len(r.Edges); i += 2 {
		a, b := r.Edges[i], r.Edges[i+1]
		if a < 0 || b < 0 || int(a) >= len(r.Squares) || int(b) >= len(r.Squares) || a == b {
			return fmt.Errorf("quadsplit: edge %d joins %d and %d, not two slots of the %d squares", i/2, a, b, len(r.Squares))
		}
		got = append(got, key(a, b))
	}
	slices.Sort(got)
	for i, e := range got {
		switch {
		case i > 0 && e == got[i-1]:
			return fmt.Errorf("quadsplit: edge (%d, %d) is listed twice", e>>32, uint32(e))
		case i >= len(want) || e != want[i]:
			if _, found := slices.BinarySearch(want, e); !found {
				return fmt.Errorf("quadsplit: edge (%d, %d) joins squares that do not touch", e>>32, uint32(e))
			}
			// got matched want up to i, and e is further on in want.
			return fmt.Errorf("quadsplit: edge (%d, %d) is missing", want[i]>>32, uint32(want[i]))
		}
	}
	if len(got) != len(want) {
		e := want[len(got)]
		return fmt.Errorf("quadsplit: edge (%d, %d) is missing", e>>32, uint32(e))
	}
	return nil
}
