package pixmap

import "fmt"

// Geometric transforms, used by the robustness test suite (a valid
// segmenter must find the same region structure in a flipped or rotated
// image) and by tooling.

// FlipH returns the image mirrored horizontally.
func (im *Image) FlipH() *Image {
	out := New(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			out.Set(im.W-1-x, y, im.At(x, y))
		}
	}
	return out
}

// FlipV returns the image mirrored vertically.
func (im *Image) FlipV() *Image {
	out := New(im.W, im.H)
	for y := 0; y < im.H; y++ {
		copy(out.Pix[(im.H-1-y)*im.W:(im.H-y)*im.W], im.Pix[y*im.W:(y+1)*im.W])
	}
	return out
}

// Rotate90 returns the image rotated 90° clockwise (H×W from W×H).
func (im *Image) Rotate90() *Image {
	out := New(im.H, im.W)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			out.Set(im.H-1-y, x, im.At(x, y))
		}
	}
	return out
}

// Upsample returns the image enlarged by an integer factor with pixel
// replication.
func (im *Image) Upsample(factor int) (*Image, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("pixmap: cannot upsample by %d", factor)
	}
	out := New(im.W*factor, im.H*factor)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			out.Set(x, y, im.At(x/factor, y/factor))
		}
	}
	return out, nil
}
