// Tile-parallel split. The sequential Split never creates a square larger
// than the effective cap, and every square is aligned to its own size, so
// no square can straddle a grid line at a multiple of the cap. Partitioning
// the image into cap-aligned tiles and splitting each tile independently
// therefore produces exactly the labels, squares, and per-level combine
// counts of the global algorithm — which is what makes a native
// shared-memory split both easy and byte-identical to the reference.
package quadsplit

import (
	"context"
	"math/bits"
	"slices"
	"sync"

	"regiongrow/internal/pixmap"
)

// minTile is the smallest tile side SplitParallel uses. Tiles must be a
// multiple of the effective cap for correctness; beyond that, larger tiles
// amortise per-tile overhead while still exposing enough parallelism.
const minTile = 32

// tileScratch pools the per-tile buffer sets of SplitParallel workers.
// Tile results are consumed (labels and square list copied out) before
// the scratch returns to the pool, so pooled reuse cannot alias a live
// result.
var tileScratch = sync.Pool{New: func() any { return new(Scratch) }}

// SplitParallel runs the split stage on `workers` goroutines by splitting
// cap-aligned tiles independently and stitching the results. It produces a
// Result identical to Split's for every image, threshold, and option set.
// workers <= 1 (or an image spanned by a single tile) falls back to Split.
// Workers check ctx at every tile boundary, stop picking up new tiles once
// it is done, drain, and the call returns (nil, ctx.Err()). All worker
// goroutines have exited by the time it returns, cancelled or not.
func SplitParallel(ctx context.Context, im *pixmap.Image, threshold int, opt Options, workers int) (*Result, error) {
	w, h := im.W, im.H
	if w == 0 || h == 0 || workers <= 1 {
		return Split(ctx, im, threshold, opt)
	}
	cap := EffectiveCap(opt, w, h)
	tile := cap
	for tile < minTile {
		tile *= 2
	}
	tx := (w + tile - 1) / tile
	ty := (h + tile - 1) / tile
	if tx*ty == 1 {
		return Split(ctx, im, threshold, opt)
	}

	res := &Result{
		W: w, H: h,
		MaxSquareUsed: cap,
	}
	if sc := opt.Scratch; sc != nil {
		res.Labels = grownInt32(&sc.labels, w*h)
	} else {
		res.Labels = make([]int32, w*h)
	}

	type tileOut struct {
		squares         []Square // the tile's list, at global IDs
		combinedPerIter []int
	}
	outs := make([]tileOut, tx*ty)

	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for t := 0; t < tx*ty; t++ {
			next <- t
		}
		close(next)
	}()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := tileScratch.Get().(*Scratch)
			defer tileScratch.Put(sc)
			for t := range next {
				// Keep draining the feeder after cancellation so it never
				// blocks; just stop doing the work.
				if ctx.Err() != nil {
					continue
				}
				x0 := (t % tx) * tile
				y0 := (t / tx) * tile
				tw := min(tile, w-x0)
				th := min(tile, h-y0)
				sub, err := im.SubImage(x0, y0, tw, th)
				if err != nil {
					panic(err) // unreachable: tile geometry is in bounds
				}
				r, err := Split(ctx, sub, threshold, Options{MaxSquare: cap, Scratch: sc})
				if err != nil {
					continue // cancelled mid-tile; reported after the drain
				}
				// Copy the labels out of the pooled scratch as they are,
				// tile slots that the interleave below makes global, and
				// re-anchor the square IDs at the global NW pixel index.
				for ly := 0; ly < th; ly++ {
					copy(res.Labels[(y0+ly)*w+x0:][:tw], r.Labels[ly*tw:])
				}
				squares := make([]Square, len(r.Squares))
				for k, sq := range r.Squares {
					sq.ID = int32((y0+int(sq.ID)/tw)*w + x0 + int(sq.ID)%tw)
					squares[k] = sq
				}
				outs[t] = tileOut{squares: squares, combinedPerIter: r.CombinedPerIter}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Aggregate per-level combine counts and replay the sequential
	// termination rule: pass l runs while the previous pass combined
	// something, up to the cap's level. (A tile that stops early simply
	// contributes zero to later levels, which is also what its blocks
	// contribute in the global algorithm.) The remaining sequential
	// termination condition — the whole image becoming one solid square —
	// requires cap >= max(w, h), which forces the single-tile fallback
	// above, so it cannot trigger here.
	maxLevel := bits.Len(uint(cap)) - 1
	combined := make([]int, maxLevel+1)
	n := 0
	for _, o := range outs {
		n += len(o.squares)
		for i, c := range o.combinedPerIter {
			if i+1 <= maxLevel {
				combined[i+1] += c
			}
		}
	}
	for l := 1; l <= maxLevel; l++ {
		res.Iterations++
		res.CombinedPerIter = append(res.CombinedPerIter, combined[l])
		if combined[l] == 0 {
			break
		}
	}
	if res.Iterations == 0 {
		res.Iterations = 1
		res.CombinedPerIter = append(res.CombinedPerIter, 0)
	}

	// Interleave the tile lists into global ID order, which is raster
	// order: within a tile row, image row y takes each tile's squares
	// whose top row is y, west tile first. Every tile list is in ID
	// order, so one cursor per tile makes this a merge with no sort. Each
	// square taken gets its global slot in the tile's slot map, and every
	// square that meets row y starts on or above it, so row y's tile
	// labels can then be rewritten through the map.
	var list []Square
	if sc := opt.Scratch; sc != nil {
		list = sc.squares[:0]
	}
	list = slices.Grow(list, n)
	cur := make([]int, tx)
	slots := make([][]int32, tx) // tile slot → global slot, per tile of the row
	for row := 0; row < ty; row++ {
		tiles := outs[row*tx : row*tx+tx]
		clear(cur)
		for i, o := range tiles {
			slots[i] = slices.Grow(slots[i][:0], len(o.squares))[:len(o.squares)]
		}
		for y := row * tile; y < min(row*tile+tile, h); y++ {
			end := int32((y + 1) * w)
			for i, o := range tiles {
				c, slot := cur[i], slots[i]
				for ; c < len(o.squares) && o.squares[c].ID < end; c++ {
					slot[c] = int32(len(list))
					list = append(list, o.squares[c])
				}
				cur[i] = c
				labels := res.Labels[y*w+i*tile : y*w+min(i*tile+tile, w)]
				for x, l := range labels {
					labels[x] = slot[l]
				}
			}
		}
	}
	if sc := opt.Scratch; sc != nil {
		sc.squares = list
	}
	res.Squares = list
	return res, nil
}
