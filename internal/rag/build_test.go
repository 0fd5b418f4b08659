package rag

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
)

// buildCheckRows is how many image rows BuildFromLabels processes
// between context checks — frequent enough that cancellation lands well
// within one stage, rare enough to keep the check off the per-pixel path.
const buildCheckRows = 64

// BuildFromLabels constructs the RAG of a labelled image: one vertex per
// label, whose region ID is the label, with the interval of its pixels,
// one edge per 4-adjacent label pair. A label's slot is its rank in order
// of first appearance in raster order, found through the build's own
// label-to-slot map. It is the tests' reference build: AddSquares must
// reproduce its arena on every split, from the labels the split's
// squares paint (squareIDs), and it accepts arbitrary label rasters.
// Cancellation is checked every few rows; it returns (nil, ctx.Err())
// when ctx is done.
//
// The builder is run-length: vertices accrue one interval union per row
// run of a label, horizontal edges one AddEdge per run boundary, and
// vertical edges one AddEdge per overlap segment of the two rows' run
// structures. The result is identical to the per-pixel build for
// arbitrary labels.
func BuildFromLabels(ctx context.Context, im *pixmap.Image, labels []int32, threshold int) (*Graph, error) {
	w, h := im.W, im.H
	if len(labels) != w*h {
		panic(fmt.Sprintf("rag: %d labels for %dx%d image", len(labels), w, h))
	}
	g := NewGraph(threshold)
	slotOf := make(map[int32]int32)
	for y := 0; y < h; y++ {
		if y%buildCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := labels[y*w : y*w+w]
		pix := im.Pix[y*w : y*w+w]
		for x := 0; x < w; {
			lab := row[x]
			x1 := x + 1
			for x1 < w && row[x1] == lab {
				x1++
			}
			lo, hi := homog.RowMinMax(pix[x:x1])
			iv := homog.Interval{Lo: lo, Hi: hi}
			if s, ok := slotOf[lab]; ok {
				g.UnionInterval(s, iv)
			} else {
				slotOf[lab] = g.AddVertex(lab, iv)
			}
			x = x1
		}
	}
	for y := 0; y < h; y++ {
		if y%buildCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := labels[y*w : y*w+w]
		for x := 0; x+1 < w; {
			lab := row[x]
			x1 := x + 1
			for x1 < w && row[x1] == lab {
				x1++
			}
			if x1 < w {
				g.AddEdge(slotOf[lab], slotOf[row[x1]]) // runs end exactly at label changes
			}
			x = x1
		}
		if y+1 >= h {
			continue
		}
		rowB := labels[(y+1)*w : (y+2)*w]
		for x := 0; x < w; {
			la, lb := row[x], rowB[x]
			x1 := x + 1
			for x1 < w && row[x1] == la && rowB[x1] == lb {
				x1++
			}
			if la != lb {
				g.AddEdge(slotOf[la], slotOf[lb])
			}
			x = x1
		}
	}
	return g, nil
}

// squareGraph is the graph the pipelines build from a split: its squares
// and edges added to an empty graph at origin 0 and stride W.
func squareGraph(t *testing.T, sp *quadsplit.Result, threshold int) *Graph {
	t.Helper()
	g := NewGraph(threshold)
	if err := g.AddSquares(context.Background(), sp.Squares, sp.Edges, sp.W, 0, sp.W); err != nil {
		t.Fatal(err)
	}
	return g
}

// paintSlots is the w×h raster of slots a square list paints, pixel by
// pixel: every pixel of square k carries k.
func paintSlots(squares []quadsplit.Square, w, h int) []int32 {
	out := make([]int32, w*h)
	for k, sq := range squares {
		x, y, side := int(sq.ID)%w, int(sq.ID)/w, sq.Side()
		for yy := y; yy < y+side; yy++ {
			for xx := x; xx < x+side; xx++ {
				out[yy*w+xx] = int32(k)
			}
		}
	}
	return out
}

// squareIDs maps a split's painted slots to the region IDs that
// AddSquares gives their squares at (origin, stride): the label raster
// BuildFromLabels must build the same arena from.
func squareIDs(sp *quadsplit.Result, origin, stride int) []int32 {
	out := paintSlots(sp.Squares, sp.W, sp.H)
	for i, lab := range out {
		p := int(sp.Squares[lab].ID)
		out[i] = int32(origin + p/sp.W*stride + p%sp.W)
	}
	return out
}

// bandGraph builds im's graph the way stream's pass 1 does: split each
// band of bandRows rows on its own, add the band's squares and edges at
// its first row's origin after the slots already held, and stitch the
// first row of the band's painted slots to the previous band's last row
// with one AddEdge per overlap run.
func bandGraph(t *testing.T, im *pixmap.Image, threshold, maxSquare, bandRows int) *Graph {
	t.Helper()
	g := NewGraph(threshold)
	w := im.W
	var frontier []int32
	for y0 := 0; y0 < im.H; y0 += bandRows {
		bh := min(bandRows, im.H-y0)
		band, err := im.SubImage(0, y0, w, bh)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := quadsplit.Split(context.Background(), band, threshold, quadsplit.Options{MaxSquare: maxSquare})
		if err != nil {
			t.Fatal(err)
		}
		base := int32(g.Slots())
		if err := g.AddSquares(context.Background(), sp.Squares, sp.Edges, w, y0*w, w); err != nil {
			t.Fatal(err)
		}
		slots := paintSlots(sp.Squares, w, bh)
		for x := 0; x < len(frontier); {
			a, b := frontier[x], slots[x]+base
			for x < w && frontier[x] == a && slots[x]+base == b {
				x++
			}
			g.AddEdge(a, b)
		}
		frontier = slices.Clone(slots[(bh-1)*w:])
		for x := range frontier {
			frontier[x] += base
		}
	}
	return g
}

// TestAddSquaresMatchesBuildFromLabels requires the square build, from
// the split's squares and edges, to reproduce the label build's arena
// over the labels the squares paint exactly — slot IDs in order,
// intervals, liveness and every adjacency list — across image shapes
// (empty, single-pixel, tall, wide, odd) and split caps, three ways: the
// whole image at origin 0, as core does; full-width bands at their row
// origins, stitched, as stream does; and a tile at its origin with the
// image's stride, as nodeprog does. The whole-image and tile builds must
// also leave every list exactly full, which shows that AddSquares counted
// each degree exactly.
func TestAddSquaresMatchesBuildFromLabels(t *testing.T) {
	images := map[string]*pixmap.Image{
		"0x0":        pixmap.New(0, 0),
		"0x9":        pixmap.New(0, 9),
		"1x1":        pixmap.Uniform(1, 7),
		"3x130":      levelCrop(3, 130),
		"130x3":      levelCrop(130, 3),
		"75x33":      levelCrop(75, 33),
		"random96":   pixmap.Random(96, 11),
		"circles128": pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions()),
	}
	const threshold = 10
	for name, im := range images {
		for _, maxSquare := range []int{0, 1, 2, 8, 16, quadsplit.Unbounded} {
			label := fmt.Sprintf("%s/cap=%d", name, maxSquare)
			sp, err := quadsplit.Split(context.Background(), im, threshold, quadsplit.Options{MaxSquare: maxSquare})
			if err != nil {
				t.Fatal(err)
			}
			want, got := build(im, squareIDs(sp, 0, im.W), threshold), squareGraph(t, sp, threshold)
			if err := sameArena(want, got); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			if err := exactLists(got); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			cap := sp.MaxSquareUsed
			for _, bandRows := range []int{cap, 3 * cap} {
				if err := sameArena(want, bandGraph(t, im, threshold, cap, bandRows)); err != nil {
					t.Errorf("%s/bands of %d rows: %v", label, bandRows, err)
				}
			}
			if err := tileMatches(im, threshold, cap); err != nil {
				t.Errorf("%s/tile: %v", label, err)
			}
		}
	}
}

// tileMatches builds the graph of im's south-east cap-aligned tile the
// way nodeprog does — the tile split on its own, its squares added at the
// tile's origin with the image's stride — and compares it with the label
// build over the tile's labels mapped to the same global IDs.
func tileMatches(im *pixmap.Image, threshold, cap int) error {
	x0, y0 := cap*(im.W/cap/2), cap*(im.H/cap/2)
	tw, th := im.W-x0, im.H-y0
	tile, err := im.SubImage(x0, y0, tw, th)
	if err != nil {
		return err
	}
	sp, err := quadsplit.Split(context.Background(), tile, threshold, quadsplit.Options{MaxSquare: cap})
	if err != nil {
		return err
	}
	want := build(tile, squareIDs(sp, y0*im.W+x0, im.W), threshold)
	got := NewGraph(threshold)
	if err := got.AddSquares(context.Background(), sp.Squares, sp.Edges, tw, y0*im.W+x0, im.W); err != nil {
		return err
	}
	if err := sameArena(want, got); err != nil {
		return err
	}
	return exactLists(got)
}

// exactLists reports the first list of g with room to spare: a list that
// AddSquares built at its exact degree has len == cap.
func exactLists(g *Graph) error {
	for s, list := range g.adj {
		if len(list) != cap(list) {
			return fmt.Errorf("slot %d holds %d neighbours in a list of cap %d", s, len(list), cap(list))
		}
	}
	return nil
}

// sameArena reports the first difference between two graphs' arenas.
func sameArena(want, got *Graph) error {
	switch {
	case !slices.Equal(got.ids, want.ids):
		return fmt.Errorf("slot IDs %v, want %v", got.ids, want.ids)
	case !slices.Equal(got.lo, want.lo) || !slices.Equal(got.hi, want.hi):
		return errors.New("slot intervals differ")
	case !slices.Equal(got.alive, want.alive) || got.nAlive != want.nAlive:
		return errors.New("slot liveness differs")
	case got.thr != want.thr:
		return errors.New("thresholds differ")
	}
	for s, adj := range want.adj {
		if !slices.Equal(got.adj[s], adj) {
			return fmt.Errorf("slot %d neighbours %v, want %v", s, got.adj[s], adj)
		}
	}
	return nil
}

// levelCrop is the w×h corner of a random image over 16 grey levels, so
// that under threshold 10 the split keeps squares of several sizes.
func levelCrop(w, h int) *pixmap.Image {
	im, err := pixmap.Random(max(w, h), 5).SubImage(0, 0, w, h)
	if err != nil {
		panic(err)
	}
	for i := range im.Pix {
		im.Pix[i] &= 15
	}
	return im
}
