package quadsplit

import (
	"context"
	"fmt"
	"math/bits"

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
	// Scratch, when non-nil, supplies reusable buffers for the result's
	// label/size arrays and the pixel-level working set. The returned
	// Result then aliases the scratch: the caller owns both and must not
	// start another split with the same Scratch while the Result is live.
	Scratch *Scratch
}

// Scratch is a reusable buffer set for the split stage. The zero value is
// ready to use; buffers grow to the largest image seen and are retained
// across runs, which is what lets a pooled caller split same-size images
// with near-zero allocation. A Scratch serves one split at a time.
type Scratch struct {
	labels, size []int32
	iv           []homog.Interval
	solid        []bool
	claimed      []bool
	rows         []uint8 // packed level-1 row scratch: 2·W bytes
}

// grownInt32 returns buf resized to n, reallocating only on growth.
func grownInt32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func grownIV(buf *[]homog.Interval, n int) []homog.Interval {
	if cap(*buf) < n {
		*buf = make([]homog.Interval, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func grownBool(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func grownU8(buf *[]uint8, n int) []uint8 {
	if cap(*buf) < n {
		*buf = make([]uint8, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Square describes one homogeneous square region: its north-west corner,
// side length, and intensity interval.
type Square struct {
	X, Y, Size int
	IV         homog.Interval
}

// ID returns the region identifier: the linear index of the square's
// north-west pixel in a width-w image, the paper's array encoding.
func (s Square) ID(w int) int32 { return int32(s.Y*w + s.X) }

// Result is the outcome of the split stage.
type Result struct {
	W, H int
	// Labels holds, for every pixel, the ID of its square region.
	Labels []int32
	// Size holds, for every pixel, the side of its square region.
	Size []int32
	// Iterations is the number of combining passes executed, counting a
	// final pass that combines nothing (the paper's convention: the best
	// case, an image with no combinable pixels, costs one iteration).
	Iterations int
	// CombinedPerIter records how many quad-blocks each pass combined.
	CombinedPerIter []int
	// NumSquares is the number of square regions produced.
	NumSquares int
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

// Split runs the split stage sequentially. It is the reference
// implementation against which the data-parallel and message-passing
// engines are verified. The combining loop checks ctx at every level
// boundary and returns (nil, ctx.Err()) when the context is done;
// cancellation never alters a completed result.
func Split(ctx context.Context, im *pixmap.Image, crit homog.Criterion, opt Options) (*Result, error) {
	w, h := im.W, im.H
	res := &Result{
		W: w, H: h,
		MaxSquareUsed: EffectiveCap(opt, w, h),
	}
	if sc := opt.Scratch; sc != nil {
		res.Labels = grownInt32(&sc.labels, w*h)
		res.Size = grownInt32(&sc.size, w*h)
	} else {
		res.Labels = make([]int32, w*h)
		res.Size = make([]int32, w*h)
	}
	if w == 0 || h == 0 {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Level state: per-level block intervals and solidity. Level l blocks
	// have side 2^l; block (bx,by) covers pixels [bx·s,(bx+1)·s)×[by·s,...).
	// Blocks that extend past the image boundary are never solid. Level 0
	// (one pixel per block, every block solid, interval = Point) is never
	// materialised: level 1 is computed straight from the raster through
	// the packed SWAR row path, and the claim pass below handles the pixel
	// level specially. That removes the two W·H working arrays and the
	// per-pixel init pass the old kernel paid for every run.
	type level struct {
		bw, bh int
		iv     []homog.Interval
		solid  []bool
	}
	maxLevel := bits.Len(uint(res.MaxSquareUsed)) - 1

	levels := make([]level, 1, maxLevel+1) // levels[0] stays zero: the pixel level is implicit

	top := 0 // highest level with at least one solid block
	for l := 1; l <= maxLevel; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := 1 << l
		cur := level{
			bw: (w + s - 1) / s,
			bh: (h + s - 1) / s,
		}
		combined := 0
		if l == 1 {
			// 2×2 pixel blocks, straight from the raster: the vertical
			// min/max of each row pair runs 8 pixels per uint64 word
			// (homog.RowsMinMax), the horizontal pair fold and criterion
			// test then run per block. These are the only buffers worth
			// pooling now, so they draw from the Scratch.
			var vlo, vhi []uint8
			if sc := opt.Scratch; sc != nil {
				rows := grownU8(&sc.rows, 2*w)
				vlo, vhi = rows[:w], rows[w:]
				cur.iv = grownIV(&sc.iv, cur.bw*cur.bh)
				cur.solid = grownBool(&sc.solid, cur.bw*cur.bh)
				clear(cur.solid) // iv needs no clear: it is read only under solid
			} else {
				vlo = make([]uint8, w)
				vhi = make([]uint8, w)
				cur.iv = make([]homog.Interval, cur.bw*cur.bh)
				cur.solid = make([]bool, cur.bw*cur.bh)
			}
			fullBW := w / 2 // blocks fully inside the image horizontally
			for by := 0; by < cur.bh; by++ {
				y := 2 * by
				if y+1 >= h {
					break // bottom row of vertically incomplete blocks: never solid
				}
				homog.RowsMinMax(im.Pix[y*w:y*w+w], im.Pix[(y+1)*w:(y+1)*w+w], vlo, vhi)
				base := by * cur.bw
				for bx := 0; bx < fullBW; bx++ {
					lo := min(vlo[2*bx], vlo[2*bx+1])
					hi := max(vhi[2*bx], vhi[2*bx+1])
					union := homog.Interval{Lo: lo, Hi: hi}
					if crit.Homogeneous(union) {
						cur.iv[base+bx] = union
						cur.solid[base+bx] = true
						combined++
					}
				}
			}
		} else {
			prev := &levels[l-1]
			cur.iv = make([]homog.Interval, cur.bw*cur.bh)
			cur.solid = make([]bool, cur.bw*cur.bh)
			for by := 0; by < cur.bh; by++ {
				for bx := 0; bx < cur.bw; bx++ {
					i := by*cur.bw + bx
					// Children at level l−1: the 2×2 group with NW child (2bx,2by).
					cx, cy := 2*bx, 2*by
					if cx+1 >= prev.bw || cy+1 >= prev.bh {
						continue // children out of range: block incomplete
					}
					c0 := cy*prev.bw + cx
					c1 := c0 + 1
					c2 := c0 + prev.bw
					c3 := c2 + 1
					if !(prev.solid[c0] && prev.solid[c1] && prev.solid[c2] && prev.solid[c3]) {
						continue
					}
					// Geometric completeness: block must be fully inside the image.
					if (bx+1)*s > w || (by+1)*s > h {
						continue
					}
					// Branch-free 4-way union: solid children are never
					// empty, so the min/max form is the exact union.
					union := homog.Interval{
						Lo: min(min(prev.iv[c0].Lo, prev.iv[c1].Lo), min(prev.iv[c2].Lo, prev.iv[c3].Lo)),
						Hi: max(max(prev.iv[c0].Hi, prev.iv[c1].Hi), max(prev.iv[c2].Hi, prev.iv[c3].Hi)),
					}
					if !crit.Homogeneous(union) {
						continue
					}
					cur.iv[i] = union
					cur.solid[i] = true
					combined++
				}
			}
		}
		levels = append(levels, cur)
		res.Iterations++
		res.CombinedPerIter = append(res.CombinedPerIter, combined)
		if combined == 0 {
			break
		}
		top = l
		// Whole image one square: the paper's first termination condition.
		if cur.bw == 1 && cur.bh == 1 && cur.solid[0] {
			break
		}
	}
	// Degenerate 1×1-cap or 1-pixel image: the stage still "runs" once in
	// the paper's accounting (it must discover nothing combines).
	if res.Iterations == 0 {
		res.Iterations = 1
		res.CombinedPerIter = append(res.CombinedPerIter, 0)
	}

	// Label every pixel with the largest solid block containing it,
	// scanning levels top-down so each pixel is claimed once.
	var claimed []bool
	if sc := opt.Scratch; sc != nil {
		claimed = grownBool(&sc.claimed, w*h)
		clear(claimed)
	} else {
		claimed = make([]bool, w*h)
	}
	for l := top; l >= 1; l-- {
		s := 1 << l
		lv := &levels[l]
		for by := 0; by < lv.bh; by++ {
			for bx := 0; bx < lv.bw; bx++ {
				if !lv.solid[by*lv.bw+bx] {
					continue
				}
				x0, y0 := bx*s, by*s
				if claimed[y0*w+x0] {
					continue
				}
				id := int32(y0*w + x0)
				res.NumSquares++
				for y := y0; y < y0+s; y++ {
					row := y * w
					for x := x0; x < x0+s; x++ {
						res.Labels[row+x] = id
						res.Size[row+x] = int32(s)
						claimed[row+x] = true
					}
				}
			}
		}
	}
	// Pixel level, implicitly: every still-unclaimed pixel is its own
	// 1×1 square (level 0 is always solid, so no solidity check needed).
	//vet:noctx bounded per-pixel sweep that cannot block; ctx was checked at every split level above
	for i := range claimed {
		if !claimed[i] {
			res.Labels[i] = int32(i)
			res.Size[i] = 1
			res.NumSquares++
		}
	}
	return res, nil
}

// Squares enumerates the square regions in north-west raster order.
func (r *Result) Squares(im *pixmap.Image) []Square {
	var out []Square
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			i := y*r.W + x
			if r.Labels[i] != int32(i) {
				continue
			}
			s := int(r.Size[i])
			iv := homog.Empty()
			for yy := y; yy < y+s; yy++ {
				for xx := x; xx < x+s; xx++ {
					iv = iv.Union(homog.Point(im.At(xx, yy)))
				}
			}
			out = append(out, Square{X: x, Y: y, Size: s, IV: iv})
		}
	}
	return out
}

// Validate checks the structural invariants of a split result against the
// source image and criterion. It returns the first violation found.
//
// Invariants:
//  1. Every pixel is labelled with the ID of a square whose NW pixel
//     carries that same label (labels are well formed).
//  2. Squares are power-of-two sized, aligned to their size, within the
//     image, and within the cap.
//  3. Every square is homogeneous under crit.
//  4. Maximality: if the four siblings of an aligned quad-block are all
//     squares of equal size < cap, their union is not homogeneous
//     (otherwise the split would have combined them).
func Validate(r *Result, im *pixmap.Image, crit homog.Criterion) error {
	w, h := r.W, r.H
	if w != im.W || h != im.H {
		return fmt.Errorf("quadsplit: result %dx%d does not match image %dx%d", w, h, im.W, im.H)
	}
	for i, lab := range r.Labels {
		if lab < 0 || int(lab) >= w*h {
			return fmt.Errorf("quadsplit: pixel %d has out-of-range label %d", i, lab)
		}
		if r.Labels[lab] != lab {
			return fmt.Errorf("quadsplit: pixel %d labelled %d, but %d is not a region root", i, lab, lab)
		}
	}
	squares := r.Squares(im)
	bySize := make(map[[3]int]Square, len(squares)) // key: x, y, size
	area := 0
	for _, s := range squares {
		if s.Size <= 0 || s.Size&(s.Size-1) != 0 {
			return fmt.Errorf("quadsplit: square at (%d,%d) has non-power-of-two size %d", s.X, s.Y, s.Size)
		}
		if s.Size > r.MaxSquareUsed {
			return fmt.Errorf("quadsplit: square at (%d,%d) size %d exceeds cap %d", s.X, s.Y, s.Size, r.MaxSquareUsed)
		}
		if s.X%s.Size != 0 || s.Y%s.Size != 0 {
			return fmt.Errorf("quadsplit: square at (%d,%d) size %d is misaligned", s.X, s.Y, s.Size)
		}
		if s.X+s.Size > w || s.Y+s.Size > h {
			return fmt.Errorf("quadsplit: square at (%d,%d) size %d exceeds image", s.X, s.Y, s.Size)
		}
		if !crit.Homogeneous(s.IV) {
			return fmt.Errorf("quadsplit: square at (%d,%d) size %d is inhomogeneous: %v", s.X, s.Y, s.Size, s.IV)
		}
		// Check the square's pixels all carry its label.
		id := s.ID(w)
		for y := s.Y; y < s.Y+s.Size; y++ {
			for x := s.X; x < s.X+s.Size; x++ {
				if r.Labels[y*w+x] != id {
					return fmt.Errorf("quadsplit: pixel (%d,%d) not labelled by enclosing square (%d,%d,%d)", x, y, s.X, s.Y, s.Size)
				}
			}
		}
		bySize[[3]int{s.X, s.Y, s.Size}] = s
		area += s.Size * s.Size
	}
	if area != w*h {
		return fmt.Errorf("quadsplit: squares cover %d pixels, image has %d", area, w*h)
	}
	// Maximality of sibling quads.
	for _, s := range squares {
		if s.Size >= r.MaxSquareUsed {
			continue
		}
		if s.X%(2*s.Size) != 0 || s.Y%(2*s.Size) != 0 {
			continue // s is not the NW sibling
		}
		sib := [3][2]int{{s.X + s.Size, s.Y}, {s.X, s.Y + s.Size}, {s.X + s.Size, s.Y + s.Size}}
		union := s.IV
		all := true
		for _, p := range sib {
			q, ok := bySize[[3]int{p[0], p[1], s.Size}]
			if !ok {
				all = false
				break
			}
			union = union.Union(q.IV)
		}
		if all && crit.Homogeneous(union) {
			return fmt.Errorf("quadsplit: quad at (%d,%d) size %d should have been combined", s.X, s.Y, 2*s.Size)
		}
	}
	return nil
}
