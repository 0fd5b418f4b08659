package quadsplit

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
)

// TestSplitParallelMatchesSequential requires the split on several
// workers to reproduce the one-band Result — square list, edge set, top
// and bottom rows, iteration counts and per-level combine counts —
// across image shapes
// (including non-power-of-two and non-square), caps, and worker counts,
// with and without a Scratch, and to pass Validate.
func TestSplitParallelMatchesSequential(t *testing.T) {
	images := map[string]*pixmap.Image{
		"uniform64":   pixmap.Uniform(64, 100),
		"checker96":   pixmap.Checkerboard(96, 0, 255),
		"gradient128": pixmap.Gradient(128, 255),
		"random100":   pixmap.Random(100, 7),
		"rect96x64":   rectImage(96, 64),
		"odd37x23":    oddRandom(37, 23, 3),
		"tall8x200":   rectImage(8, 200),
		"tiny1x1":     pixmap.Uniform(1, 9),
	}
	for name, im := range images {
		for _, maxSquare := range []int{0, 1, 8, 16, Unbounded} {
			for _, threshold := range []int{0, 10, 300} {
				want := split(im, threshold, Options{MaxSquare: maxSquare, Workers: 1})
				opt := Options{MaxSquare: maxSquare}
				for _, workers := range []int{1, 2, 3, 8} {
					if workers == 3 {
						opt.Scratch = new(Scratch)
					}
					opt.Workers = workers
					got, err := Split(context.Background(), im, threshold, opt)
					label := fmt.Sprintf("%s/cap=%d/T=%d/w=%d", name, maxSquare, threshold, workers)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := sameResult(want, got); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					if err := Validate(got, im, threshold); err != nil {
						t.Errorf("%s: invalid: %v", label, err)
					}
				}
			}
		}
	}
}

// fuzzImage decodes FuzzSplitBandsMatchOneBand's w×h image. Noise
// takes pixel i from pix[i], and past its end from prand stream seed,
// over five grey levels three apart; plateaus fill the image with pix[0],
// then draw one rectangle per five further bytes (corner, extent, grey
// level), clipped to the image.
func fuzzImage(w, h int, plateau bool, seed uint64, pix []byte) *pixmap.Image {
	im := pixmap.New(w, h)
	if !plateau {
		r := prand.New(seed)
		for i := range im.Pix {
			b := byte(r.Uint64())
			if i < len(pix) {
				b = pix[i]
			}
			im.Pix[i] = b % 5 * 3
		}
		return im
	}
	if len(pix) > 0 {
		im.FillRect(0, 0, w, h, pix[0]%64)
	}
	for r := pix[min(1, len(pix)):]; len(r) >= 5; r = r[5:] {
		x0, y0 := int(r[0])%w, int(r[1])%h
		im.FillRect(x0, y0, x0+1+int(r[2])%w, y0+1+int(r[3])%h, r[4]%64)
	}
	return im
}

// FuzzSplitBandsMatchOneBand is the banded split's generative oracle: on
// any W×H image (1–160 each) of noise or plateau pixels, under square
// caps 0, 1, 2, 4, 8 and Unbounded, any threshold 0–20 or 255, and 2–4
// workers, Split must give its one-band Result (the sorted edge set and
// the top and bottom rows included) and pass Validate. With reuse set,
// its Scratch first serves a split of a larger noise image, so a stale
// list entry, edge or row would show.
func FuzzSplitBandsMatchOneBand(f *testing.F) {
	f.Add(uint8(159), uint8(159), false, uint8(4), uint8(10), uint8(2), false, uint64(1), []byte(nil))
	f.Add(uint8(99), uint8(36), true, uint8(5), uint8(21), uint8(0), true, uint64(2), prandBytes(41, 2))
	f.Add(uint8(32), uint8(129), false, uint8(1), uint8(0), uint8(1), true, uint64(3), prandBytes(64, 3))
	f.Add(uint8(70), uint8(65), true, uint8(0), uint8(6), uint8(2), false, uint64(4), prandBytes(26, 4))
	f.Fuzz(func(t *testing.T, w, h uint8, plateau bool, capSel, threshold, workers uint8, reuse bool, seed uint64, pix []byte) {
		im := fuzzImage(1+int(w)%160, 1+int(h)%160, plateau, seed, pix)
		thr := int(threshold % 22)
		if thr == 21 {
			thr = 255
		}
		opt := Options{MaxSquare: []int{0, 1, 2, 4, 8, Unbounded}[capSel%6]}
		n := 2 + int(workers%3)
		name := fmt.Sprintf("%dx%d plateau=%t cap=%d T=%d workers=%d reuse=%t", im.W, im.H, plateau, opt.MaxSquare, thr, n, reuse)
		want := split(im, thr, Options{MaxSquare: opt.MaxSquare, Workers: 1})
		opt.Workers = n
		if reuse {
			opt.Scratch = new(Scratch)
			stale := fuzzImage(im.W+33, im.H+17, false, seed+1, nil)
			if _, err := Split(context.Background(), stale, thr, opt); err != nil {
				t.Fatalf("%s: stale split: %v", name, err)
			}
		}
		got, err := Split(context.Background(), im, thr, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameResult(want, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Validate(got, im, thr); err != nil {
			t.Fatalf("%s: invalid: %v", name, err)
		}
	})
}

// prandBytes returns n bytes of prand stream seed.
func prandBytes(n int, seed uint64) []byte {
	r := prand.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func sameResult(want, got *Result) error {
	if want.W != got.W || want.H != got.H {
		return fmt.Errorf("dims %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	if want.Iterations != got.Iterations {
		return fmt.Errorf("iterations %d, want %d", got.Iterations, want.Iterations)
	}
	if want.MaxSquareUsed != got.MaxSquareUsed {
		return fmt.Errorf("cap %d, want %d", got.MaxSquareUsed, want.MaxSquareUsed)
	}
	if len(want.CombinedPerIter) != len(got.CombinedPerIter) {
		return fmt.Errorf("combined %v, want %v", got.CombinedPerIter, want.CombinedPerIter)
	}
	for i := range want.CombinedPerIter {
		if want.CombinedPerIter[i] != got.CombinedPerIter[i] {
			return fmt.Errorf("combined %v, want %v", got.CombinedPerIter, want.CombinedPerIter)
		}
	}
	if !slices.Equal(want.Squares, got.Squares) {
		return fmt.Errorf("square list differs: %d squares, want %d", len(got.Squares), len(want.Squares))
	}
	if w, g := edgeSet(want.Edges), edgeSet(got.Edges); !slices.Equal(w, g) {
		return fmt.Errorf("edges %v, want %v", g, w)
	}
	if !slices.Equal(want.Top, got.Top) || !slices.Equal(want.Bottom, got.Bottom) {
		return fmt.Errorf("rows %v and %v, want %v and %v", got.Top, got.Bottom, want.Top, want.Bottom)
	}
	return nil
}

func oddRandom(w, h int, seed uint64) *pixmap.Image {
	sq := pixmap.Random(max(w, h), seed)
	im, err := sq.SubImage(0, 0, w, h)
	if err != nil {
		panic(err)
	}
	return im
}

func rectImage(w, h int) *pixmap.Image {
	im := pixmap.New(w, h)
	im.FillRect(0, 0, w, h, 20)
	im.FillRect(w/4, h/4, 3*w/4, 3*h/4, 200)
	return im
}
