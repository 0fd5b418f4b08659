package nodeprog

import (
	"testing"
	"time"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

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

// TestAssembleTiles: Assemble places every tile of a 2×2 grid of unequal
// tiles, takes rank 0's counters, and splits the wall time at the
// longest node's split.
func TestAssembleTiles(t *testing.T) {
	g := Grid{XStarts: []int{0, 2, 5}, YStarts: []int{0, 1, 3}}
	im := &pixmap.Image{W: 5, H: 3, Pix: make([]byte, 15)}
	for i := range im.Pix {
		im.Pix[i] = byte(10 * i)
	}
	splits := []time.Duration{time.Millisecond, 5 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	results := make([]*Result, 4)
	for rank := range results {
		// Every pixel is its own region, labelled with its raster index,
		// so a misplaced tile shows as a label out of place.
		x0, y0, w, h := g.tile(rank)
		res := &Result{SplitWall: splits[rank]}
		for ly := range h {
			for lx := range w {
				res.Labels = append(res.Labels, int32((y0+ly)*im.W+x0+lx))
			}
		}
		results[rank] = res
	}
	results[0].SplitIterations, results[0].Squares = 2, 15
	results[0].Merge = rag.MergeStats{Iterations: 3, MergesPerIter: []int{0, 0, 0}, ForcedResolutions: 1}

	seg := Assemble(im, g, results, 20*time.Millisecond)
	for i, lab := range seg.Labels {
		if lab != int32(i) {
			t.Fatalf("pixel %d labelled %d: tiles misplaced (%v)", i, lab, seg.Labels)
		}
	}
	if seg.W != 5 || seg.H != 3 || seg.SplitIterations != 2 || seg.SquaresAfterSplit != 15 ||
		seg.MergeIterations != 3 || seg.ForcedResolutions != 1 || len(seg.MergesPerIter) != 3 {
		t.Fatalf("counters %+v, want rank 0's", seg)
	}
	if seg.SplitWall != 5*time.Millisecond || seg.MergeWall != 15*time.Millisecond {
		t.Fatalf("split %v merge %v, want 5ms and 15ms", seg.SplitWall, seg.MergeWall)
	}
	if seg.FinalRegions != 15 || seg.Regions[7] != (rag.Region{ID: 7, IV: homog.Point(70), Area: 1}) {
		t.Fatalf("%d regions, region 7 %+v", seg.FinalRegions, seg.Regions[7])
	}
}
