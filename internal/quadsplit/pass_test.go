package quadsplit

import (
	"fmt"
	"math/bits"
	"testing"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

// scalarLevel is one level of the scalar pass the packed one replaced:
// every block of side 2^l that meets the image, a solid flag for each,
// and the interval of each solid one.
type scalarLevel struct {
	bw, bh int
	iv     []homog.Interval
	solid  []bool
}

// scalarLevels is the reference for band.pass: levels 0 to maxLevel of
// one band over the whole image, one block at a time. Every pixel is a
// solid level-0 block with its point interval; a level-l block is solid
// when its four children are solid, it lies inside the image, and the
// union of their intervals has a range of at most threshold.
func scalarLevels(im *pixmap.Image, threshold, maxLevel int) []scalarLevel {
	w, h := im.W, im.H
	levels := []scalarLevel{{bw: w, bh: h, iv: make([]homog.Interval, w*h), solid: make([]bool, w*h)}}
	for i, p := range im.Pix {
		levels[0].iv[i] = homog.Point(p)
		levels[0].solid[i] = true
	}
	for l := 1; l <= maxLevel; l++ {
		s := 1 << l
		prev := &levels[l-1]
		cur := scalarLevel{bw: (w + s - 1) / s, bh: (h + s - 1) / s}
		cur.iv = make([]homog.Interval, cur.bw*cur.bh)
		cur.solid = make([]bool, cur.bw*cur.bh)
		for by := 0; by < cur.bh; by++ {
			for bx := 0; bx < cur.bw; bx++ {
				cx, cy := 2*bx, 2*by
				if cx+1 >= prev.bw || cy+1 >= prev.bh || (bx+1)*s > w || (by+1)*s > h {
					continue
				}
				c0 := cy*prev.bw + cx
				c2 := c0 + prev.bw
				if !(prev.solid[c0] && prev.solid[c0+1] && prev.solid[c2] && prev.solid[c2+1]) {
					continue
				}
				iv := prev.iv[c0].Union(prev.iv[c0+1]).Union(prev.iv[c2]).Union(prev.iv[c2+1])
				if iv.Range() > threshold {
					continue
				}
				cur.iv[by*cur.bw+bx] = iv
				cur.solid[by*cur.bw+bx] = true
			}
		}
		levels = append(levels, cur)
	}
	return levels
}

// passThresholds are the thresholds FuzzPackedPassMatchesScalar draws
// from: below every range, the small ranges noise and plateaus meet, and
// the top of the uint8 range and beyond.
var passThresholds = []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 254, 255, 300}

// FuzzPackedPassMatchesScalar pins band.pass to the scalar reference: on
// any W×H image (1–160 each) of noise or plateau pixels, and every
// threshold of passThresholds, each level's combine count, its solid set
// and the intervals of its solid blocks must equal the reference's, at
// every level up to the image's largest power-of-two side. A level whose
// width in blocks is not a multiple of 8 ends every row in the scalar
// tail.
func FuzzPackedPassMatchesScalar(f *testing.F) {
	f.Add(uint8(159), uint8(159), false, uint8(11), uint64(1), []byte(nil))
	f.Add(uint8(142), uint8(37), true, uint8(1), uint64(2), prandBytes(41, 2))
	f.Add(uint8(15), uint8(16), false, uint8(0), uint64(3), prandBytes(64, 3))
	f.Add(uint8(16), uint8(99), true, uint8(24), uint64(4), prandBytes(26, 4))
	f.Fuzz(func(t *testing.T, w, h uint8, plateau bool, thrSel uint8, seed uint64, pix []byte) {
		im := fuzzImage(1+int(w)%160, 1+int(h)%160, plateau, seed, pix)
		threshold := passThresholds[int(thrSel)%len(passThresholds)]
		maxLevel := bits.Len(uint(max(im.W, im.H))) - 1
		want := scalarLevels(im, threshold, maxLevel)
		b := band{levels: []level{{bw: im.W, bh: im.H, lo: im.Pix, hi: im.Pix}}}
		for l := 1; l <= maxLevel; l++ {
			name := fmt.Sprintf("%dx%d plateau=%t T=%d level %d", im.W, im.H, plateau, threshold, l)
			b.pass(l, threshold)
			ref, got := &want[l], &b.levels[l]
			n := 0
			for by := 0; by < ref.bh; by++ {
				for bx := 0; bx < ref.bw; bx++ {
					i := by*ref.bw + bx
					if got.solid(bx, by, threshold) != ref.solid[i] {
						t.Fatalf("%s: block (%d,%d) solid=%t, want %t", name, bx, by, !ref.solid[i], ref.solid[i])
					}
					if !ref.solid[i] {
						continue
					}
					n++
					j := by*got.bw + bx
					if iv := (homog.Interval{Lo: got.lo[j], Hi: got.hi[j]}); iv != ref.iv[i] {
						t.Fatalf("%s: block (%d,%d) interval %v, want %v", name, bx, by, iv, ref.iv[i])
					}
				}
			}
			if b.combined != n {
				t.Fatalf("%s: combined %d, want %d", name, b.combined, n)
			}
		}
	})
}
