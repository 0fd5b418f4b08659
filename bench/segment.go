package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"regiongrow"
	"regiongrow/internal/pixmap"
)

// tieSeedsPerInput is how many random-tie seeds each image runs under. The
// seeds are a fixed set derived from the workload seed, so the sequential
// references can be computed once and held in memory.
const tieSeedsPerInput = 2

// tieSeeds derives n random-tie seeds from the workload seed.
func tieSeeds(seed uint64, n int) []uint64 {
	r := rand.New(rand.NewPCG(seed, 0x7e5eed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1 + r.Uint64N(1<<32)
	}
	return out
}

// segmentInput is one operation of a Segmenter workload: an image, its
// config, and the labels the sequential reference produced for them.
type segmentInput struct {
	im  *regiongrow.Image
	cfg regiongrow.Config
	ref []int32
}

// withReferences fills every input's reference labels from a fresh
// sequential session, segmenting each distinct (image, config) once.
func withReferences(ctx context.Context, inputs []segmentInput) error {
	seq, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		return err
	}
	type key struct {
		im  *regiongrow.Image
		cfg regiongrow.Config
	}
	refs := make(map[key][]int32)
	for i, in := range inputs {
		k := key{in.im, in.cfg}
		if refs[k] == nil {
			seg, err := seq.Segment(ctx, in.im, in.cfg)
			if err != nil {
				return fmt.Errorf("sequential reference: %w", err)
			}
			refs[k] = seg.Labels
		}
		inputs[i].ref = refs[k]
	}
	return nil
}

// segmentRun is the state of a Segmenter workload after set-up.
type segmentRun struct {
	session *regiongrow.Segmenter
	inputs  []segmentInput
}

// segmentTally accumulates what the operations of a Segmenter workload
// report. The loop has one caller, so it needs no lock.
type segmentTally struct {
	ops, rounds int
	stages      stageCounts
}

// check runs inputs[i % len] on the session under obs and reports whether
// the labels match the reference, and the merge rounds the run took.
func (r *segmentRun) check(ctx context.Context, i int, obs regiongrow.Observer) (rounds int, ok bool) {
	in := r.inputs[i%len(r.inputs)]
	seg, err := r.session.SegmentObserved(ctx, in.im, in.cfg, obs)
	if err != nil || !slices.Equal(seg.Labels, in.ref) {
		return 0, false
	}
	return seg.MergeIterations, true
}

// op is the loop's operation: check, with the stage spans recorded when
// traced.
func (r *segmentRun) op(ctx context.Context, tr *tracer, t *segmentTally) func(i int, traced bool) sample {
	return func(i int, traced bool) sample {
		in := r.inputs[i%len(r.inputs)]
		var obs regiongrow.Observer
		var st *stageTracer
		var start int64
		if traced {
			start = tr.now()
			st = startStages(tr, coreStages)
			obs = st
		}
		t0 := time.Now()
		rounds, ok := r.check(ctx, i, obs)
		s := sample{latency: time.Since(t0), pixels: in.im.W * in.im.H, failed: !ok}
		if traced {
			t.stages.add(st.finish(start))
		}
		t.ops++
		t.rounds += rounds
		return s
	}
}

// warm runs one operation per distinct image, so the session's buffer
// pool holds every size before timing starts.
func (r *segmentRun) warm(ctx context.Context) error {
	seen := make(map[*regiongrow.Image]bool)
	for _, in := range r.inputs {
		if seen[in.im] {
			continue
		}
		seen[in.im] = true
		if _, err := r.session.Segment(ctx, in.im, in.cfg); err != nil {
			return err
		}
	}
	return nil
}

// paperInputs is one cycle of paper-mixed: the six paper images under
// the three tie policies, each random-tie seed once and each deterministic
// policy as often (its output does not depend on the seed), shuffled by
// the workload seed.
func paperInputs(seed uint64, ids []regiongrow.PaperImageID) []segmentInput {
	seeds := tieSeeds(seed, tieSeedsPerInput)
	var inputs []segmentInput
	for _, id := range ids {
		im := regiongrow.GeneratePaperImage(id)
		for _, s := range seeds {
			for _, tie := range regiongrow.AllTiePolicies() {
				cfg := regiongrow.CanonicalizeConfig(regiongrow.Config{Threshold: 10, Tie: tie, Seed: s})
				inputs = append(inputs, segmentInput{im: im, cfg: cfg})
			}
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x5417))
	r.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	return inputs
}

// largeInputs is one cycle of large-native: three side² inputs under
// random ties — the clean tool (few large squares, split-heavy) and
// circles and rectangles dithered by ±4 (many small squares) — each under
// every tie seed.
func largeInputs(seed uint64, side int) []segmentInput {
	noisy := pixmap.GenOptions{Noise: 4, Seed: seed}
	images := []*regiongrow.Image{
		pixmap.Tool(side, pixmap.GenOptions{}),
		pixmap.CircleCollection(side, noisy),
		pixmap.RectCollection(side, noisy),
	}
	var inputs []segmentInput
	for _, s := range tieSeeds(seed, tieSeedsPerInput) {
		for _, im := range images {
			inputs = append(inputs, segmentInput{im: im, cfg: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: s}})
		}
	}
	return inputs
}

func runPaperMixed(ctx context.Context, c config, tr *tracer) (*outcome, error) {
	return runSegmenter(ctx, c, tr, func() (*segmentRun, error) {
		s, err := regiongrow.New(regiongrow.SequentialEngine)
		return &segmentRun{session: s, inputs: paperInputs(c.seed, c.images(regiongrow.AllPaperImageIDs()...))}, err
	})
}

func runLargeNative(ctx context.Context, c config, tr *tracer) (*outcome, error) {
	return runSegmenter(ctx, c, tr, func() (*segmentRun, error) {
		s, err := regiongrow.New(regiongrow.NativeParallel, regiongrow.WithWorkers(runtime.NumCPU()))
		return &segmentRun{session: s, inputs: largeInputs(c.seed, c.sides(1024, 256))}, err
	})
}

// runSegmenter drives a Segmenter session in a closed loop with one
// caller, over whole cycles of its inputs.
func runSegmenter(ctx context.Context, c config, tr *tracer, newRun func() (*segmentRun, error)) (*outcome, error) {
	run, setup, err := setUp(c, func() (*segmentRun, error) {
		r, err := newRun()
		if err != nil {
			return nil, err
		}
		if err := withReferences(ctx, r.inputs); err != nil {
			return nil, err
		}
		return r, r.warm(ctx)
	}, func(*segmentRun) {})
	if err != nil {
		return nil, err
	}

	var tally segmentTally
	op := run.op(ctx, tr, &tally)
	base := settledHeap()
	l := loop{callers: 1, cycle: len(run.inputs), op: op}
	p := l.run(c.measure, c.traced, tr)
	o := &outcome{attempted: len(p.samples), failed: p.failures(), setup: setup}
	if !c.traced {
		closedLoop(o, p, 1, nil, o.probeCycle(base, len(run.inputs), func(i int, h *heapPeak) bool {
			_, ok := run.check(ctx, i, h)
			return ok
		}))
		return o, nil
	}

	closedLoop(o, p, 1, tr, 0)
	self := layerTimes(tr.slice(p.spanLo, p.spanHi))
	st := tally.stages
	ops := float64(st.ops)
	o.layers["core.session_ms_per_op"] = ratio(self["core.session"], ops)
	o.layers["core.finalize_ms_per_op"] = ratio(self["core.finalize"], ops)
	o.layers["core.allocs_per_op"] = ratio(float64(p.untraced.allocObjs), float64(p.untraced.ops))
	o.layers["core.alloc_mib_per_op"] = ratio(float64(p.untraced.allocBytes)/(1<<20), float64(p.untraced.ops))
	o.layers["quadsplit.split_ms_per_op"] = ratio(self["quadsplit.split"], ops)
	o.layers["quadsplit.squares_per_op"] = ratio(float64(st.squares), ops)
	o.layers["rag.graph_ms_per_op"] = ratio(self["rag.graph"], ops)
	o.layers["rag.merge_ms_per_op"] = ratio(self["rag.round"], ops)
	o.layers["rag.merge_us_per_round"] = ratio(1e3*self["rag.round"], float64(st.rounds))
	o.layers["rag.round_yield"] = ratio(float64(st.merges), float64(st.alive))
	o.layers["rag.merge_rounds_per_op"] = ratio(float64(tally.rounds), float64(tally.ops))

	if run.session.Kind() == regiongrow.NativeParallel {
		// The same input sequence on the sequential engine, for as long as
		// one block: its wall time per operation over native's.
		seq, err := regiongrow.New(regiongrow.SequentialEngine)
		if err != nil {
			return nil, err
		}
		seqRun := &segmentRun{session: seq, inputs: run.inputs}
		var seqTally segmentTally
		sp := loop{callers: 1, cycle: len(run.inputs), op: seqRun.op(ctx, tr, &seqTally)}.run(c.measure/4, false, tr)
		o.attempted += len(sp.samples)
		o.failed += sp.failures()
		o.layers["shmengine.speedup_vs_sequential"] = ratio(
			ratio(float64(sp.untraced.wall), float64(sp.untraced.ops)),
			ratio(float64(p.untraced.wall), float64(p.untraced.ops)))
	}
	return o, nil
}
