package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"time"

	"regiongrow"
	"regiongrow/internal/pixmap"
)

// streamInput is one stream-16mp input: a binary PGM held in memory and
// the config it is segmented under.
type streamInput struct {
	pgm  []byte
	w, h int
	cfg  regiongrow.Config
}

// streamRun is stream-16mp's state after set-up.
type streamRun struct {
	inputs []streamInput
	spool  string
}

// streamResult is what one streamed operation produced.
type streamResult struct {
	input  int
	digest [sha256.Size]byte
}

func newStreamRun(ctx context.Context, c config) (*streamRun, error) {
	spool, err := os.MkdirTemp("", "regiongrow-bench-spool-")
	if err != nil {
		return nil, err
	}
	r := &streamRun{spool: spool}
	seeds := tieSeeds(c.seed, 2)
	images := []*regiongrow.Image{
		pixmap.CircleCollection(c.sides(4096, 512), pixmap.GenOptions{Noise: 4, Seed: c.seed}),
		pixmap.Tool(c.sides(4096, 512), pixmap.GenOptions{}),
	}
	for i, im := range images {
		var b bytes.Buffer
		if err := regiongrow.WritePGM(&b, im); err != nil {
			r.close()
			return nil, err
		}
		r.inputs = append(r.inputs, streamInput{pgm: b.Bytes(), w: im.W, h: im.H,
			cfg: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: seeds[i]}})
	}
	// Warm-up: one unmeasured stream, so the first measured one does not
	// pay for growing the heap.
	if _, err := r.segment(ctx, len(r.inputs)-1, nil, nil); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *streamRun) close() { os.RemoveAll(r.spool) }

// segment streams input i into a sha256 writer and returns the digest.
// With a heap probe, the probe observes the stages and checkpoints as the
// input is read and the output written.
func (r *streamRun) segment(ctx context.Context, i int, obs regiongrow.Observer, probe *heapPeak) ([sha256.Size]byte, error) {
	in := r.inputs[i]
	h := sha256.New()
	var src io.Reader = bytes.NewReader(in.pgm)
	var dst io.Writer = h
	if probe != nil {
		src, dst, obs = probe.reader(src), probe.writer(dst), probe
	}
	opts := []regiongrow.StreamOption{regiongrow.WithStreamSpoolDir(r.spool)}
	if obs != nil {
		opts = append(opts, regiongrow.WithStreamObserver(obs))
	}
	var sum [sha256.Size]byte
	if _, err := regiongrow.SegmentStream(ctx, src, dst, in.cfg, opts...); err != nil {
		return sum, err
	}
	h.Sum(sum[:0])
	return sum, nil
}

// reference returns the sha256 of the in-memory sequential engine's
// recoloured output for input i — what the stream must reproduce byte
// for byte.
func (r *streamRun) reference(ctx context.Context, i int) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	in := r.inputs[i]
	im, err := regiongrow.ReadPGM(bytes.NewReader(in.pgm))
	if err != nil {
		return sum, err
	}
	seq, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		return sum, err
	}
	seg, err := seq.Segment(ctx, im, in.cfg)
	if err != nil {
		return sum, err
	}
	h := sha256.New()
	if err := regiongrow.WritePGM(h, regiongrow.Recolour(seg, im)); err != nil {
		return sum, err
	}
	h.Sum(sum[:0])
	return sum, nil
}

// runStream drives SegmentStream in a closed loop with one caller,
// alternating dithered circles and the clean tool, and checks every
// output's hash against the in-memory reference after the measured phase
// (the 16 MP references are computed once, outside set-up and timing).
func runStream(ctx context.Context, c config, tr *tracer) (*outcome, error) {
	run, setup, err := setUp(c, func() (*streamRun, error) { return newStreamRun(ctx, c) },
		func(r *streamRun) { r.close() })
	if err != nil {
		return nil, err
	}
	defer run.close()

	// record streams input k and keeps its digest for the check against
	// the reference; it reports whether the stream succeeded.
	var results []streamResult
	record := func(k int, obs regiongrow.Observer, probe *heapPeak) bool {
		sum, err := run.segment(ctx, k, obs, probe)
		if err == nil {
			results = append(results, streamResult{input: k, digest: sum})
		}
		return err == nil
	}
	var stages stageCounts
	op := func(i int, traced bool) sample {
		k := i % len(run.inputs)
		var obs regiongrow.Observer
		var st *stageTracer
		var start int64
		if traced {
			start = tr.now()
			st = startStages(tr, streamStages)
			obs = st
		}
		t0 := time.Now()
		ok := record(k, obs, nil)
		s := sample{latency: time.Since(t0), pixels: run.inputs[k].w * run.inputs[k].h, failed: !ok}
		if traced {
			stages.add(st.finish(start))
		}
		return s
	}
	base := settledHeap()
	p := loop{callers: 1, cycle: len(run.inputs), op: op}.run(c.measure, c.traced, tr)
	o := &outcome{attempted: len(p.samples), failed: p.failures(), setup: setup}
	var heap float64
	if !c.traced {
		heap = o.probeCycle(base, len(run.inputs), func(k int, h *heapPeak) bool { return record(k, nil, h) })
	}
	for k := range run.inputs {
		want, err := run.reference(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("stream reference: %w", err)
		}
		for _, res := range results {
			if res.input == k && res.digest != want {
				o.failed++
			}
		}
	}
	closedLoop(o, p, 1, tr, heap)
	if !c.traced {
		return o, nil
	}
	self := layerTimes(tr.slice(p.spanLo, p.spanHi))
	ops := float64(stages.ops)
	o.layers["stream.pass1_ms_per_op"] = ratio(self["stream.pass1"], ops)
	o.layers["stream.merge_ms_per_op"] = ratio(self["stream.round"], ops)
	o.layers["stream.pass2_ms_per_op"] = ratio(self["stream.pass2"], ops)
	o.layers["stream.squares_per_op"] = ratio(float64(stages.squares), ops)
	mbs, err := run.decodeRate()
	if err != nil {
		return nil, err
	}
	o.layers["pixmap.stream_decode_mb_s"] = mbs
	return o, nil
}

// decodeRate times pixmap.StreamReader alone over every input, in the
// band-sized reads the stream engine makes, and returns MB/s.
func (r *streamRun) decodeRate() (float64, error) {
	var n int
	t0 := time.Now()
	for pass := 0; pass < 3; pass++ {
		for _, in := range r.inputs {
			sr, err := pixmap.NewStreamReader(bytes.NewReader(in.pgm))
			if err != nil {
				return 0, err
			}
			rows := 256
			buf := make([]uint8, sr.Width()*rows)
			for sr.RowsRemaining() > 0 {
				k := min(rows, sr.RowsRemaining())
				if err := sr.ReadRows(buf, k); err != nil {
					return 0, err
				}
			}
			n += len(in.pgm)
		}
	}
	return float64(n) / 1e6 / time.Since(t0).Seconds(), nil
}
