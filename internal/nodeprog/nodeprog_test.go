package nodeprog

import "testing"

// TestGridOwnerTiles: mpengine's uniform 4×8 tiling of a 128² image.
func TestGridOwnerTiles(t *testing.T) {
	g := Grid{
		XStarts: []int{0, 16, 32, 48, 64, 80, 96, 112, 128},
		YStarts: []int{0, 32, 64, 96, 128},
	}
	cases := []struct {
		id   int32
		want int
	}{
		{0, 0},              // origin
		{16, 1},             // pixel (16, 0): column tile 1
		{32 * 128, 8},       // pixel (0, 32): row tile 1
		{127*128 + 127, 31}, // last pixel
	}
	for _, c := range cases {
		if got := g.owner(c.id); got != c.want {
			t.Errorf("owner(%d) = %d, want %d", c.id, got, c.want)
		}
	}
	if x0, y0, w, h := g.tile(9); x0 != 16 || y0 != 32 || w != 16 || h != 32 {
		t.Fatalf("tile(9) = (%d,%d) %dx%d", x0, y0, w, h)
	}
}

// TestGridOwnerBands: distengine's 1×m bands with uneven heights.
func TestGridOwnerBands(t *testing.T) {
	g := Grid{XStarts: []int{0, 10}, YStarts: []int{0, 8, 12, 13}}
	for y := 0; y < 13; y++ {
		want := 0
		switch {
		case y >= 12:
			want = 2
		case y >= 8:
			want = 1
		}
		for x := 0; x < 10; x++ {
			if got := g.owner(int32(y*10 + x)); got != want {
				t.Fatalf("owner of (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
	if x0, y0, w, h := g.tile(1); x0 != 0 || y0 != 8 || w != 10 || h != 4 {
		t.Fatalf("tile(1) = (%d,%d) %dx%d", x0, y0, w, h)
	}
}
