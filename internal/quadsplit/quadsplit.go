package quadsplit

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
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
	// labels and square list. The returned Result then aliases the
	// scratch: the caller owns both and must not start another split with
	// the same Scratch while the Result is live.
	Scratch *Scratch
}

// Scratch is a reusable buffer set for the split stage's result. The zero
// value is ready to use; buffers grow to the largest image seen and are
// retained across runs, which is what lets a pooled caller split
// same-size images without allocating a result. A Scratch serves one
// split at a time. The level passes' blocks are not kept here: they are
// dead once the claim is done, and pooled beside the result they would
// stay live for as long as the result does.
type Scratch struct {
	labels  []int32
	squares []Square
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

// Result is the outcome of the split stage.
type Result struct {
	W, H int
	// Labels holds, for every pixel, its square's slot: the square's
	// index in Squares.
	Labels []int32
	// Squares lists every square once, in ascending ID order: raster
	// order of the north-west corners, which is the order in which a
	// graph build meets them, so a square's index is also its slot in
	// the graph built from the list.
	Squares []Square
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
}

// Split runs the split stage under threshold T: a block combines when its
// pixel range is at most threshold. It is the reference implementation
// against which the data-parallel and message-passing engines are
// verified. It checks ctx on the calling goroutine before every level
// pass and returns (nil, ctx.Err()) when the context is done;
// cancellation never alters a completed result. With opt.Workers above 1
// the passes and the claim run in row bands on goroutines (see the
// package doc), all of which have exited when Split returns; the Result
// is the same for every worker count.
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
	res.Labels = grown(&sc.labels, w*h)
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

	top := 0 // highest level with at least one solid block
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
		top = l
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
	// every band claims straight into the shared labels and list.
	n := 0
	for i := range bands {
		bands[i].first = n
		n += (bands[i].y1-bands[i].y0)*w - 3*bands[i].solid
	}
	res.Squares = grown(&sc.squares, n)
	inBands(bands, func(b *band) { b.claim(top, threshold, w, res.Labels, res.Squares) })
	return res, nil
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
// it combined. Each row pair of level l−1 folds into a row of level l 8
// blocks per homog.FoldQuads call, with a scalar tail for the last
// bw mod 8 blocks.
func (b *band) pass(l, threshold int) {
	prev := &b.levels[l-1]
	cur := level{bw: prev.bw / 2, bh: prev.bh / 2}
	cur.lo, cur.hi = make([]uint8, cur.bw*cur.bh), make([]uint8, cur.bw*cur.bh)
	combined := 0
	for by := 0; by < cur.bh; by++ {
		a, c, row := 2*by*prev.bw, (2*by+1)*prev.bw, by*cur.bw
		bx := 0
		for ; bx+8 <= cur.bw; bx += 8 {
			i, j := a+2*bx, c+2*bx
			lo, hi, k := homog.FoldQuads(prev.lo[i:], prev.lo[j:], prev.hi[i:], prev.hi[j:], threshold)
			binary.LittleEndian.PutUint64(cur.lo[row+bx:], lo)
			binary.LittleEndian.PutUint64(cur.hi[row+bx:], hi)
			combined += k
		}
		for ; bx < cur.bw; bx++ {
			i, j := a+2*bx, c+2*bx
			lo := min(prev.lo[i], prev.lo[i+1], prev.lo[j], prev.lo[j+1])
			hi := max(prev.hi[i], prev.hi[i+1], prev.hi[j], prev.hi[j+1])
			cur.lo[row+bx], cur.hi[row+bx] = lo, hi
			if int(hi)-int(lo) <= threshold {
				combined++
			}
		}
	}
	b.levels = append(b.levels, cur)
	b.combined = combined
	b.solid += combined
}

// claim labels the band's rows of labels and fills its squares into list
// from slot b.first, row by row. A solid block's four children are
// solid, so a block lies inside a larger square exactly when its parent
// block is solid: the square covering pixel (x, y) is the block reached
// by climbing the levels while the parent is solid. On the square's top
// row the step records the square and labels its run with the square's
// slot; on its other rows it copies the run from the row above, which is
// never above the band, since the band starts on a multiple of every
// side. The walk meets north-west corners in raster order, so the list
// comes out in ascending ID order with no sort.
func (b *band) claim(top, threshold, w int, labels []int32, list []Square) {
	levels, slot := b.levels, int32(b.first)
	for y := b.y0; y < b.y1; y++ {
		row, by := labels[y*w:y*w+w], y-b.y0
		for x := 0; x < w; {
			l := 0
			for l < top && levels[l+1].solid(x>>(l+1), by>>(l+1), threshold) {
				l++
			}
			s := 1 << l
			run := row[x : x+s]
			if y&(s-1) != 0 {
				copy(run, labels[(y-1)*w+x:])
			} else {
				lv := &levels[l]
				i := (by>>l)*lv.bw + x>>l
				for i := range run {
					run[i] = slot
				}
				list[slot] = Square{ID: int32(y*w + x), IV: homog.Interval{Lo: lv.lo[i], Hi: lv.hi[i]}, Log2: uint8(l)}
				slot++
			}
			x += s
		}
	}
}

// Validate checks the structural invariants of a split result against the
// source image and threshold T. It returns the first violation found.
//
// Invariants:
//  1. The square list is in strictly ascending ID order; every square is
//     aligned to its power-of-two size, within the image and within the
//     cap; and the areas sum to W·H.
//  2. Every label is a slot of the list, and every pixel of square k
//     carries k. With the area sum, the list tiles the image exactly.
//  3. Every recorded interval is the union of its square's pixels, and
//     every square's pixel range is at most threshold.
//  4. Maximality: if the four siblings of an aligned quad-block are all
//     squares of equal size < cap, their union's range exceeds threshold
//     (otherwise the split would have combined them).
func Validate(r *Result, im *pixmap.Image, threshold int) error {
	w, h := r.W, r.H
	if w != im.W || h != im.H {
		return fmt.Errorf("quadsplit: result %dx%d does not match image %dx%d", w, h, im.W, im.H)
	}
	if len(r.Labels) != w*h {
		return fmt.Errorf("quadsplit: %d labels for a %dx%d image", len(r.Labels), w, h)
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
	for i, lab := range r.Labels {
		if lab < 0 || int(lab) >= len(r.Squares) {
			return fmt.Errorf("quadsplit: pixel %d has label %d, not a slot of the %d squares", i, lab, len(r.Squares))
		}
	}
	for k, s := range r.Squares {
		x, y, size := int(s.ID)%w, int(s.ID)/w, s.Side()
		iv := homog.Empty()
		for yy := y; yy < y+size; yy++ {
			for xx := x; xx < x+size; xx++ {
				if r.Labels[yy*w+xx] != int32(k) {
					return fmt.Errorf("quadsplit: pixel (%d,%d) not labelled by enclosing square %d (%d,%d,%d)", xx, yy, k, x, y, size)
				}
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
			q := r.Squares[r.Labels[id]]
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
	return nil
}
