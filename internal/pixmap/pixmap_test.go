package pixmap

import (
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	im := New(4, 3)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 12 {
		t.Fatalf("New(4,3): %dx%d len %d", im.W, im.H, len(im.Pix))
	}
	im.Set(2, 1, 77)
	if im.At(2, 1) != 77 {
		t.Fatalf("At(2,1) = %d", im.At(2, 1))
	}
	if im.Index(2, 1) != 6 {
		t.Fatalf("Index(2,1) = %d", im.Index(2, 1))
	}
	x, y := im.Coord(6)
	if x != 2 || y != 1 {
		t.Fatalf("Coord(6) = (%d,%d)", x, y)
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	im := New(37, 23)
	err := quick.Check(func(raw uint16) bool {
		idx := int(raw) % (im.W * im.H)
		x, y := im.Coord(idx)
		return im.Index(x, y) == idx && im.In(x, y)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestIn(t *testing.T) {
	im := New(5, 4)
	cases := []struct {
		x, y int
		want bool
	}{
		{0, 0, true}, {4, 3, true}, {5, 3, false}, {4, 4, false},
		{-1, 0, false}, {0, -1, false},
	}
	for _, c := range cases {
		if im.In(c.x, c.y) != c.want {
			t.Errorf("In(%d,%d) = %v, want %v", c.x, c.y, !c.want, c.want)
		}
	}
}

func TestFromRows(t *testing.T) {
	im, err := FromRows([][]uint8{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if im.At(1, 0) != 2 || im.At(0, 1) != 3 {
		t.Fatalf("FromRows layout wrong: %v", im.Pix)
	}
	if _, err := FromRows([][]uint8{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.W != 0 || empty.H != 0 {
		t.Fatalf("FromRows(nil): %v %v", empty, err)
	}
}

func TestFillRectClipping(t *testing.T) {
	im := New(8, 8)
	im.FillRect(-5, -5, 3, 3, 9) // clipped at origin
	im.FillRect(6, 6, 20, 20, 7) // clipped at far corner
	if im.At(0, 0) != 9 || im.At(2, 2) != 9 || im.At(3, 3) != 0 {
		t.Fatal("origin clip wrong")
	}
	if im.At(7, 7) != 7 || im.At(5, 5) != 0 {
		t.Fatal("far clip wrong")
	}
	// Fully outside: no-op, no panic.
	im.FillRect(100, 100, 200, 200, 1)
}

func TestFillCircle(t *testing.T) {
	im := New(21, 21)
	im.FillCircle(10, 10, 5, 200)
	if im.At(10, 10) != 200 {
		t.Fatal("center not filled")
	}
	if im.At(10, 5) != 200 || im.At(15, 10) != 200 {
		t.Fatal("cardinal extremes not filled")
	}
	if im.At(14, 14) != 0 { // (4,4) from center: 32 > 25
		t.Fatal("corner outside radius was filled")
	}
	// Clipped circle must not panic.
	im.FillCircle(0, 0, 5, 100)
	if im.At(0, 0) != 100 {
		t.Fatal("clipped circle missing center")
	}
}

func TestRangeAndHistogram(t *testing.T) {
	im := New(2, 2)
	copy(im.Pix, []uint8{5, 9, 7, 5})
	lo, hi := im.Range()
	if lo != 5 || hi != 9 {
		t.Fatalf("Range = (%d,%d)", lo, hi)
	}
	h := im.Histogram()
	if h[5] != 2 || h[7] != 1 || h[9] != 1 || h[0] != 0 {
		t.Fatalf("Histogram wrong: 5:%d 7:%d 9:%d", h[5], h[7], h[9])
	}
	empty := New(0, 0)
	lo, hi = empty.Range()
	if lo != 0 || hi != 0 {
		t.Fatalf("empty Range = (%d,%d)", lo, hi)
	}
}

func TestCloneAndEqual(t *testing.T) {
	a := Random(16, 3)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone differs")
	}
	b.Set(0, 0, b.At(0, 0)+1)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.Equal(New(16, 15)) {
		t.Fatal("different dims equal")
	}
}

func TestSubImage(t *testing.T) {
	im := New(8, 8)
	im.FillRect(2, 2, 6, 6, 50)
	sub, err := im.SubImage(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.W != 4 || sub.H != 4 {
		t.Fatalf("sub dims %dx%d", sub.W, sub.H)
	}
	for i := range sub.Pix {
		if sub.Pix[i] != 50 {
			t.Fatalf("sub pixel %d = %d", i, sub.Pix[i])
		}
	}
	if _, err := im.SubImage(5, 5, 4, 4); err == nil {
		t.Fatal("out-of-bounds window accepted")
	}
	if _, err := im.SubImage(-1, 0, 2, 2); err == nil {
		t.Fatal("negative origin accepted")
	}
}

func TestSubImageTilingReassembles(t *testing.T) {
	im := Random(32, 99)
	for _, tile := range []int{8, 16} {
		for y0 := 0; y0 < 32; y0 += tile {
			for x0 := 0; x0 < 32; x0 += tile {
				sub, err := im.SubImage(x0, y0, tile, tile)
				if err != nil {
					t.Fatal(err)
				}
				for ly := 0; ly < tile; ly++ {
					for lx := 0; lx < tile; lx++ {
						if sub.At(lx, ly) != im.At(x0+lx, y0+ly) {
							t.Fatalf("tile (%d,%d) pixel (%d,%d) mismatch", x0, y0, lx, ly)
						}
					}
				}
			}
		}
	}
}

// Histogram returns the 256-bin intensity histogram.
func (im *Image) Histogram() [256]int {
	var h [256]int
	for _, p := range im.Pix {
		h[p]++
	}
	return h
}
