package stream

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
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
	// SpoolDir hosts the square-spool temp file ("" = the system default).
	SpoolDir string
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

// spoolRecord is one spilled square: 8 little-endian bytes on disk.
const spoolRecordSize = 8

// Segment streams a PGM from r, segments it under cfg, and writes the
// result to w in the format opt.Output selects. Cancellation and progress
// follow the standard engine contract: ctx is checked at every band and
// merge round, stage events go to run.Observer.
//
// Peak memory is O(band + squares): one pixel band, the frontier strip,
// and the region graph — never the full raster or label map. Each band's
// split adds a transient 4 B per pixel of band labels and 8 B per square
// of list, both dead once the band is in the graph and the spool. Labels
// are byte-identical to the sequential engine's for the same cfg.
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

	spool, err := os.CreateTemp(opt.SpoolDir, "regiongrow-stream-*.spool")
	if err != nil {
		return nil, fmt.Errorf("stream: creating spool: %w", err)
	}
	defer func() {
		spool.Close()
		os.Remove(spool.Name())
	}()

	g := rag.NewGraph(cfg.Threshold)
	bandSquares, err := ingest(ctx, sr, spool, g, res, cfg, run, cap, bandRows)
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

	if err := emit(ctx, w, spool, g, res, bandSquares, bandRows, opt.Output); err != nil {
		return nil, err
	}
	res.MergeWall = time.Since(t1) //vet:timing stage wall-time for Result; never reaches labels or output bytes
	run.Emit(core.StageEvent{Kind: core.EventMergeDone, Iterations: mstats.Iterations, Regions: res.FinalRegions})
	return res, nil
}

// ingest runs pass 1: stream bands in, split each, add the band's square
// list to the global RAG (stitching across band boundaries through the
// retained frontier row), and spill the list to the spool. Every square
// is a new vertex, so spool record k is the vertex in graph slot k. It
// returns the per-band square counts that delimit the spool on replay.
func ingest(ctx context.Context, sr *pixmap.StreamReader, spool *os.File, g *rag.Graph, res *Result, cfg core.Config, run core.Run, cap, bandRows int) ([]int, error) {
	width, height := res.W, res.H
	run.Emit(core.StageEvent{Kind: core.EventSplitStart})
	t0 := time.Now() //vet:timing stage wall-time for Result; never reaches labels or output bytes

	sw := bufio.NewWriterSize(spool, 1<<16)
	bandPix := make([]uint8, width*bandRows)
	frontier := make([]int32, width) // previous band's last row, as graph slots
	var bandSquares []int
	var rec [spoolRecordSize]byte

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
		// the band's origin); spool record k is list entry k.
		base := int32(g.Slots())
		if err := g.AddSquares(ctx, sp.Squares, sp.Labels, width, y0*width, width); err != nil {
			return nil, err
		}
		for _, sq := range sp.Squares {
			binary.LittleEndian.PutUint32(rec[0:4], uint32(int(sq.ID)+y0*width))
			binary.LittleEndian.PutUint32(rec[4:8], uint32(sq.Side()))
			if _, err := sw.Write(rec[:]); err != nil {
				return nil, fmt.Errorf("stream: writing spool: %w", err)
			}
		}
		bandSquares = append(bandSquares, len(sp.Squares))

		// Stitch the band's first row to the previous band's boundary row,
		// one edge per overlap run, then retire the band: only the new
		// frontier strip survives.
		labels := sp.Labels
		if y0 > 0 {
			for x := 0; x < width; {
				a, b := frontier[x], labels[x]
				for x < width && frontier[x] == a && labels[x] == b {
					x++
				}
				g.AddEdge(a, b+base)
			}
		}
		for x, l := range labels[(bh-1)*width:] {
			frontier[x] = l + base
		}
		y0 += bh
		res.Bands++
	}
	if err := sw.Flush(); err != nil {
		return nil, fmt.Errorf("stream: flushing spool: %w", err)
	}
	res.SplitWall = time.Since(t0) //vet:timing stage wall-time for Result; never reaches labels or output bytes
	run.Emit(core.StageEvent{Kind: core.EventSplitDone, Iterations: res.SplitIterations, Squares: res.SquaresAfterSplit})
	return bandSquares, nil
}

// emit runs pass 2: replay the spool band by band, resolve every square's
// final region through the graph's contraction record (record k is slot
// k), and stream the output.
func emit(ctx context.Context, w io.Writer, spool *os.File, g *rag.Graph, res *Result, bandSquares []int, bandRows int, output Output) error {
	width, height := res.W, res.H
	if _, err := spool.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("stream: rewinding spool: %w", err)
	}
	rd := bufio.NewReaderSize(spool, 1<<16)

	var pgm *pixmap.StreamWriter
	var bw *bufio.Writer
	var outPix []uint8
	var outLab []int32
	switch output {
	case OutputRecolour:
		var err error
		if pgm, err = pixmap.NewStreamWriter(w, width, height); err != nil {
			return err
		}
		outPix = make([]uint8, width*bandRows)
	case OutputLabels:
		bw = bufio.NewWriterSize(w, 1<<16)
		if err := writeLabelHeader(bw, width, height); err != nil {
			return err
		}
		outLab = make([]int32, width*bandRows)
	default:
		return fmt.Errorf("stream: unknown output format %d", int(output))
	}

	var rec [spoolRecordSize]byte
	y0, slot := 0, 0
	for bi, count := range bandSquares {
		if err := ctx.Err(); err != nil {
			return err
		}
		bh := min(bandRows, height-y0)
		for k := 0; k < count; k++ {
			if _, err := io.ReadFull(rd, rec[:]); err != nil {
				return fmt.Errorf("stream: reading spool band %d: %w", bi, err)
			}
			gid := int32(binary.LittleEndian.Uint32(rec[0:4]))
			size := int(binary.LittleEndian.Uint32(rec[4:8]))
			if slot >= g.Slots() || g.SlotID(slot) != gid {
				return fmt.Errorf("stream: spool record %d names square %d, not graph slot %d's", slot, gid, slot)
			}
			root := g.RootSlot(slot)
			slot++
			x := int(gid) % width
			ly := int(gid)/width - y0
			if ly < 0 || ly+size > bh || x+size > width {
				return fmt.Errorf("stream: spool square (%d,%d,%d) outside band %d", x, ly, size, bi)
			}
			if output == OutputRecolour {
				// Graph vertex intervals are exact pixel unions (square
				// intervals union under contraction), so the midpoint
				// matches Recolour on the in-memory segmentation.
				iv := g.SlotInterval(root)
				s := uint8((int(iv.Lo) + int(iv.Hi)) / 2)
				for yy := ly; yy < ly+size; yy++ {
					row := yy * width
					for xx := x; xx < x+size; xx++ {
						outPix[row+xx] = s
					}
				}
			} else {
				final := g.SlotID(root)
				for yy := ly; yy < ly+size; yy++ {
					row := yy * width
					for xx := x; xx < x+size; xx++ {
						outLab[row+xx] = final
					}
				}
			}
		}
		if output == OutputRecolour {
			if err := pgm.WriteRows(outPix[:bh*width]); err != nil {
				return err
			}
		} else {
			for _, lab := range outLab[:bh*width] {
				binary.LittleEndian.PutUint32(rec[0:4], uint32(lab))
				if _, err := bw.Write(rec[0:4]); err != nil {
					return fmt.Errorf("stream: writing labels: %w", err)
				}
			}
		}
		y0 += bh
	}
	if output == OutputRecolour {
		return pgm.Close()
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: flushing labels: %w", err)
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
		return writeLabelHeader(w, width, height)
	default:
		return fmt.Errorf("stream: unknown output format %d", int(output))
	}
}

// writeLabelHeader writes the label-raster magic and geometry.
func writeLabelHeader(w io.Writer, width, height int) error {
	if _, err := fmt.Fprintf(w, "RGLS\n%d %d\n", width, height); err != nil {
		return fmt.Errorf("stream: writing label header: %w", err)
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
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeLabelHeader(bw, width, height); err != nil {
		return err
	}
	var rec [4]byte
	for _, lab := range labels {
		binary.LittleEndian.PutUint32(rec[:], uint32(lab))
		if _, err := bw.Write(rec[:]); err != nil {
			return fmt.Errorf("stream: writing labels: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: flushing labels: %w", err)
	}
	return nil
}
