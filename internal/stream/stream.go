package stream

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// Output selects what the streaming engine emits.
type Output int

const (
	// OutputRecolour emits a binary PGM painting every final region the
	// midpoint of its intensity interval — byte-identical to recolouring
	// the sequential engine's segmentation and writing it with WritePGM.
	OutputRecolour Output = iota
	// OutputLabels emits the raw label raster in the format of
	// EncodeLabels — byte-identical to encoding the sequential engine's
	// Labels.
	OutputLabels
)

// Options tune the streaming driver. The zero value is ready to use.
type Options struct {
	// BandRows is the desired band height in rows. It is rounded down to a
	// multiple of the effective split cap and raised to at least one cap —
	// the alignment that makes band-local splits equal the global split —
	// and then limited to the image height, so a band never outgrows the
	// image. 0 selects one cap per band, the minimum-memory configuration.
	BandRows int
	// Output selects the emitted format (default OutputRecolour).
	Output Output
}

// Result reports what a streaming run did. It mirrors the statistics of
// core.Segmentation without the per-pixel label array, which never exists
// in memory on this path.
type Result struct {
	W, H  int
	Bands int

	SplitIterations   int // max over bands, the parallel-engine convention
	MergeIterations   int
	SquaresAfterSplit int
	FinalRegions      int

	MergesPerIter     []int
	ForcedResolutions int

	SplitWall, MergeWall time.Duration
}

// Segment streams a PGM from r, segments it under cfg, and writes the
// result to w in the format opt.Output selects. Cancellation and progress
// follow the standard engine contract: ctx is checked at every band and
// merge round, stage events go to run.Observer.
//
// Peak memory is O(band + squares): one pixel band, the frontier strip,
// the region graph, and one byte per square — never the full raster or
// label map. Each band's split adds its level planes (2/3 B per band
// pixel) and a transient 8 B per square of list and at most 24 B per
// square of edges, all dead once the band is in the graph; no stage
// writes a label raster. Labels are byte-identical to the sequential
// engine's for the same cfg.
func Segment(ctx context.Context, r io.Reader, w io.Writer, cfg core.Config, run core.Run, opt Options) (*Result, error) {
	sr, err := pixmap.NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	width, height := sr.Width(), sr.Height()
	res := &Result{W: width, H: height}
	if width == 0 || height == 0 {
		// Degenerate geometry: emit the header of an empty raster, exactly
		// what the in-memory path would write for the empty segmentation.
		return res, writeEmpty(w, width, height, opt.Output)
	}

	cap := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, width, height)
	// One band covers the image exactly when the request reaches past it:
	// the band buffers are sized from bandRows before any pixel is read,
	// and a header alone must not size them past the image it declares.
	bandRows := min(max(opt.BandRows/cap, 1)*cap, height)

	g := rag.NewGraph(cfg.Threshold)
	log2, err := ingest(ctx, sr, g, res, cfg, run, cap, bandRows)
	if err != nil {
		return nil, err
	}
	run.Emit(core.StageEvent{Kind: core.EventGraphDone, Squares: res.SquaresAfterSplit})

	t1 := time.Now() //vet:timing stage wall-time for Result; never reaches labels or output bytes
	mstats, err := g.MergeAll(ctx, cfg.Tie, cfg.Seed, func(iter, merged int) {
		run.Emit(core.StageEvent{Kind: core.EventMergeIteration, Iteration: iter, Merges: merged})
	})
	if err != nil {
		return nil, err
	}
	res.MergeIterations = mstats.Iterations
	res.MergesPerIter = mstats.MergesPerIter
	res.ForcedResolutions = mstats.ForcedResolutions
	res.FinalRegions = g.NumVertices()

	if err := emit(ctx, w, g, log2, res, bandRows, opt.Output); err != nil {
		return nil, err
	}
	res.MergeWall = time.Since(t1) //vet:timing stage wall-time for Result; never reaches labels or output bytes
	run.Emit(core.StageEvent{Kind: core.EventMergeDone, Iterations: mstats.Iterations, Regions: res.FinalRegions})
	return res, nil
}

// ingest runs pass 1: stream bands in, split each, and add the band's
// square list to the global RAG, stitching across band boundaries through
// the retained frontier row. Every square is a new vertex, so graph slot k
// is square k; ingest returns the squares' Log2 sides by slot, from which
// pass 2 places them (the merge may move a region's ID into another
// square's slot, so the slots' IDs cannot).
func ingest(ctx context.Context, sr *pixmap.StreamReader, g *rag.Graph, res *Result, cfg core.Config, run core.Run, cap, bandRows int) ([]uint8, error) {
	width, height := res.W, res.H
	run.Emit(core.StageEvent{Kind: core.EventSplitStart})
	t0 := time.Now() //vet:timing stage wall-time for Result; never reaches labels or output bytes

	bandPix := make([]uint8, width*bandRows)
	frontier := make([]int32, width) // previous band's last row, as graph slots
	var log2 []uint8
	var seam []int32 // the stitch edges of one band boundary

	for y0 := 0; y0 < height; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bh := min(bandRows, height-y0)
		if err := sr.ReadRows(bandPix, bh); err != nil {
			return nil, err
		}
		band := &pixmap.Image{W: width, H: bh, Pix: bandPix[:width*bh]}
		// The cap was resolved against the full image; a short final band
		// may legally re-resolve it smaller (see distengine's identical
		// local split), so the band split equals the global split within
		// the band.
		sp, err := quadsplit.Split(ctx, band, cfg.Threshold, quadsplit.Options{MaxSquare: cap, Scratch: run.Scratch})
		if err != nil {
			return nil, err
		}
		res.SplitIterations = max(res.SplitIterations, sp.Iterations)
		res.SquaresAfterSplit += len(sp.Squares)

		// The band's squares and the edges inside the band join the graph
		// after the slots already held, at global IDs (band-local index +
		// the band's origin).
		base := int32(g.Slots())
		if err := g.AddSquares(ctx, sp.Squares, sp.Edges, width, y0*width, width); err != nil {
			return nil, err
		}
		for _, sq := range sp.Squares {
			log2 = append(log2, sq.Log2)
		}

		// Stitch the band's top row to the previous band's bottom row, one
		// edge per overlap run, then retire the band: only the new
		// frontier strip survives.
		if y0 > 0 {
			seam = quadsplit.Stitch(seam[:0], frontier, sp.Top)
			for i := 0; i < len(seam); i += 2 {
				g.AddEdge(seam[i], seam[i+1]+base)
			}
		}
		for x, s := range sp.Bottom {
			frontier[x] = s + base
		}
		y0 += bh
		res.Bands++
	}
	res.SplitWall = time.Since(t0) //vet:timing stage wall-time for Result; never reaches labels or output bytes
	run.Emit(core.StageEvent{Kind: core.EventSplitDone, Iterations: res.SplitIterations, Squares: res.SquaresAfterSplit})
	return log2, nil
}

// emit runs pass 2: it replays the graph's slots into the format output
// selects.
func emit(ctx context.Context, w io.Writer, g *rag.Graph, log2 []uint8, res *Result, bandRows int, output Output) error {
	switch output {
	case OutputRecolour:
		pgm, err := pixmap.NewStreamWriter(w, res.W, res.H)
		if err != nil {
			return err
		}
		// Graph vertex intervals are exact pixel unions (square intervals
		// union under contraction), so the midpoint matches Recolour on
		// the in-memory segmentation.
		shade := func(root int) uint8 {
			iv := g.SlotInterval(root)
			return uint8((int(iv.Lo) + int(iv.Hi)) / 2)
		}
		if err := replay(ctx, g, log2, res, bandRows, shade, pgm.WriteRows); err != nil {
			return err
		}
		return pgm.Close()
	case OutputLabels:
		lw, err := newLabelWriter(w, res.W, res.H)
		if err != nil {
			return err
		}
		if err := replay(ctx, g, log2, res, bandRows, g.SlotID, lw.writeRows); err != nil {
			return err
		}
		return lw.flush()
	default:
		return fmt.Errorf("stream: unknown output format %d", int(output))
	}
}

// replay walks the graph's slots in order, band by band: it paints each
// square into one band buffer with the value of its final region
// (RootSlot) and hands the band's rows to write. Slot k is square k of
// pass 1 and log2[k] sizes it, but a merge may have left another region's
// ID in its slot, so squares are placed from their sizes alone. Each
// band's squares took the slots after the previous band's, in raster
// order of their north-west corners. So a walk along each band row that
// jumps over the squares placed above it meets the next slot's corner at
// every stop: below[x] is the row under, and side[x] the side of, the
// last square placed with its west column at x, and the walk stops only
// at west columns.
func replay[T uint8 | int32](ctx context.Context, g *rag.Graph, log2 []uint8, res *Result, bandRows int, value func(root int) T, write func([]T) error) error {
	width := res.W
	buf := make([]T, width*bandRows)
	below, side := make([]int32, width), make([]int32, width)
	slot := 0
	for y0 := 0; y0 < res.H; y0 += bandRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(y0+bandRows, res.H)
		for y := y0; y < end; y++ {
			for x := 0; x < width; {
				if int(below[x]) > y {
					x += int(side[x])
					continue
				}
				n := 1 << log2[slot]
				quadsplit.Paint(buf, (y-y0)*width+x, n, width, value(g.RootSlot(slot)))
				slot++
				below[x], side[x] = int32(y+n), int32(n)
				x += n
			}
		}
		if err := write(buf[:(end-y0)*width]); err != nil {
			return err
		}
	}
	return nil
}

// writeEmpty emits the output header of a zero-pixel image.
func writeEmpty(w io.Writer, width, height int, output Output) error {
	switch output {
	case OutputRecolour:
		_, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", width, height)
		return err
	case OutputLabels:
		return EncodeLabels(w, width, height, nil)
	default:
		return fmt.Errorf("stream: unknown output format %d", int(output))
	}
}

// labelWriter writes the OutputLabels wire format: the header at
// construction, then region IDs row by row.
type labelWriter struct{ bw *bufio.Writer }

func newLabelWriter(w io.Writer, width, height int) (labelWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "RGLS\n%d %d\n", width, height); err != nil {
		return labelWriter{}, fmt.Errorf("stream: writing label header: %w", err)
	}
	return labelWriter{bw}, nil
}

// writeRows appends labels as little-endian int32s, each buffer-sized
// chunk encoded straight into the writer's free space.
func (lw labelWriter) writeRows(labels []int32) error {
	for len(labels) > 0 {
		buf := lw.bw.AvailableBuffer()
		n := min(len(labels), cap(buf)/4)
		if n == 0 {
			if err := lw.bw.Flush(); err != nil {
				return fmt.Errorf("stream: writing labels: %w", err)
			}
			continue
		}
		for _, lab := range labels[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(lab))
		}
		if _, err := lw.bw.Write(buf); err != nil {
			return fmt.Errorf("stream: writing labels: %w", err)
		}
		labels = labels[n:]
	}
	return nil
}

func (lw labelWriter) flush() error {
	if err := lw.bw.Flush(); err != nil {
		return fmt.Errorf("stream: flushing labels: %w", err)
	}
	return nil
}

// EncodeLabels writes an in-memory label raster in the OutputLabels wire
// format: "RGLS\n<w> <h>\n" then W·H little-endian int32 region IDs in
// raster order. It is how the in-memory engines' results are compared
// byte-for-byte against a streamed OutputLabels run.
func EncodeLabels(w io.Writer, width, height int, labels []int32) error {
	if len(labels) != width*height {
		return fmt.Errorf("stream: %d labels for %dx%d raster", len(labels), width, height)
	}
	lw, err := newLabelWriter(w, width, height)
	if err != nil {
		return err
	}
	if err := lw.writeRows(labels); err != nil {
		return err
	}
	return lw.flush()
}
