package pixmap

import (
	"errors"
	"fmt"
)

// Image is a gray-scale raster with 8-bit pixels stored row-major.
// The zero value is an empty image; use New to allocate.
type Image struct {
	W, H int
	Pix  []uint8
}

// New allocates a w×h image of zero (black) pixels.
// It panics if either dimension is negative.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("pixmap: negative dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// FromRows builds an image from a slice of equally sized rows.
// It returns an error if the rows are ragged.
func FromRows(rows [][]uint8) (*Image, error) {
	h := len(rows)
	if h == 0 {
		return New(0, 0), nil
	}
	w := len(rows[0])
	img := New(w, h)
	for y, r := range rows {
		if len(r) != w {
			return nil, fmt.Errorf("pixmap: ragged row %d: got %d pixels, want %d", y, len(r), w)
		}
		copy(img.Pix[y*w:(y+1)*w], r)
	}
	return img, nil
}

// At returns the intensity at (x, y). It panics when out of bounds,
// matching slice semantics.
func (im *Image) At(x, y int) uint8 { return im.Pix[y*im.W+x] }

// Set writes the intensity at (x, y).
func (im *Image) Set(x, y int, v uint8) { im.Pix[y*im.W+x] = v }

// Index returns the row-major linear index of (x, y). Linear indices are
// the region IDs used throughout the library, matching the paper's encoding
// of a square region by its north-west pixel.
func (im *Image) Index(x, y int) int { return y*im.W + x }

// Coord is the inverse of Index.
func (im *Image) Coord(idx int) (x, y int) { return idx % im.W, idx / im.W }

// In reports whether (x, y) lies inside the image.
func (im *Image) In(x, y int) bool { return x >= 0 && x < im.W && y >= 0 && y < im.H }

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := New(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Equal reports whether two images have identical dimensions and pixels.
func (im *Image) Equal(other *Image) bool {
	if im.W != other.W || im.H != other.H {
		return false
	}
	for i, p := range im.Pix {
		if p != other.Pix[i] {
			return false
		}
	}
	return true
}

// FillRect sets every pixel of the rectangle [x0,x1)×[y0,y1) clipped to the
// image to intensity v.
func (im *Image) FillRect(x0, y0, x1, y1 int, v uint8) {
	x0 = max(x0, 0)
	y0 = max(y0, 0)
	x1 = min(x1, im.W)
	y1 = min(y1, im.H)
	for y := y0; y < y1; y++ {
		row := im.Pix[y*im.W : (y+1)*im.W]
		for x := x0; x < x1; x++ {
			row[x] = v
		}
	}
}

// FillCircle sets every pixel within radius r of (cx, cy) to intensity v.
func (im *Image) FillCircle(cx, cy, r int, v uint8) {
	for y := cy - r; y <= cy+r; y++ {
		for x := cx - r; x <= cx+r; x++ {
			if !im.In(x, y) {
				continue
			}
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r*r {
				im.Set(x, y, v)
			}
		}
	}
}

// Range returns the minimum and maximum intensity over the whole image.
// It returns (0, 0) for an empty image.
func (im *Image) Range() (lo, hi uint8) {
	if len(im.Pix) == 0 {
		return 0, 0
	}
	lo, hi = im.Pix[0], im.Pix[0]
	for _, p := range im.Pix[1:] {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return lo, hi
}

// ErrBounds is returned by SubImage when the requested window is invalid.
var ErrBounds = errors.New("pixmap: window out of bounds")

// SubImage copies the w×h window with origin (x0, y0) into a fresh image.
func (im *Image) SubImage(x0, y0, w, h int) (*Image, error) {
	if x0 < 0 || y0 < 0 || w < 0 || h < 0 || x0+w > im.W || y0+h > im.H {
		return nil, fmt.Errorf("%w: origin (%d,%d) size %dx%d in %dx%d", ErrBounds, x0, y0, w, h, im.W, im.H)
	}
	out := New(w, h)
	for y := 0; y < h; y++ {
		copy(out.Pix[y*w:(y+1)*w], im.Pix[(y0+y)*im.W+x0:(y0+y)*im.W+x0+w])
	}
	return out, nil
}
