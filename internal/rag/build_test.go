package rag

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
)

// TestBuildParallelMatchesBuildFromLabels requires the band build to
// reproduce the single build's arena exactly — slot IDs in order,
// intervals, liveness and every adjacency list — across image shapes
// (empty, single-pixel, tall, wide, odd), split caps (whose squares then
// often span band boundaries) and worker counts, and to return
// (nil, ctx.Err()) on a cancelled context.
func TestBuildParallelMatchesBuildFromLabels(t *testing.T) {
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
	c := crit(10)
	for name, im := range images {
		for _, maxSquare := range []int{0, 1, 2, 8, 16, quadsplit.Unbounded} {
			sp, err := quadsplit.Split(context.Background(), im, c, quadsplit.Options{MaxSquare: maxSquare})
			if err != nil {
				t.Fatal(err)
			}
			want := build(im, sp.Labels, c)
			for _, workers := range []int{1, 2, 3, 7, 64} {
				label := fmt.Sprintf("%s/cap=%d/w=%d", name, maxSquare, workers)
				got, err := BuildParallel(context.Background(), im, sp.Labels, c, workers)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := sameArena(want, got); err != nil {
					t.Errorf("%s: %v", label, err)
				}
				if im.H == 0 {
					continue // no row to check the context at, as in BuildFromLabels
				}
				got, err = BuildParallel(cancelled(), im, sp.Labels, c, workers)
				if !errors.Is(err, context.Canceled) || got != nil {
					t.Errorf("%s: cancelled build = %v, %v; want nil, context.Canceled", label, got, err)
				}
			}
		}
	}
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
	case !maps.Equal(got.slotOf, want.slotOf):
		return errors.New("region-to-slot maps differ")
	case got.Crit != want.Crit || got.thr != want.thr:
		return errors.New("criteria differ")
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
