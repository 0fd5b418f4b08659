package regiongrow

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"regiongrow/internal/core"
)

// freshReference runs a throwaway context-free engine — no Segmenter, no
// pooling — as the ground truth pooled runs must match byte for byte.
func freshReference(t *testing.T, kind EngineKind, im *Image, cfg Config) *Segmentation {
	t.Helper()
	eng, err := NewEngine(kind)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := eng.Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestSegmenterPooledReuseByteIdentical is the pooling acceptance
// property: one Segmenter per serving engine, reused across all six paper
// images × three tie policies × repeated calls, stays byte-identical to
// fresh one-shot runs — scratch reuse can never leak state between calls,
// so the determinism and cache-key invariants survive the redesign.
func TestSegmenterPooledReuseByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []EngineKind{SequentialEngine, NativeParallel} {
		s, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range AllPaperImageIDs() {
			im := GeneratePaperImage(id)
			for _, tie := range []TiePolicy{SmallestIDTie, LargestIDTie, RandomTie} {
				cfg := Config{Threshold: 10, Tie: tie, Seed: 1}
				ref := freshReference(t, kind, im, cfg)
				// Two pooled calls: the second reuses buffers the first
				// returned to the pool — the interesting case.
				for round := 1; round <= 2; round++ {
					seg, err := s.Segment(ctx, im, cfg)
					if err != nil {
						t.Fatalf("%v/%v/%v round %d: %v", kind, id, tie, round, err)
					}
					if !ref.EqualLabels(seg) {
						t.Fatalf("%v/%v/%v round %d: pooled labels differ from fresh run", kind, id, tie, round)
					}
				}
			}
		}
	}
}

// TestSegmenterPoolingDisabled: WithBufferPool(false) is still correct.
func TestSegmenterPoolingDisabled(t *testing.T) {
	s, err := New(SequentialEngine, WithBufferPool(false))
	if err != nil {
		t.Fatal(err)
	}
	im := GeneratePaperImage(Image3Circles128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	seg, err := s.Segment(context.Background(), im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !freshReference(t, SequentialEngine, im, cfg).EqualLabels(seg) {
		t.Fatal("unpooled Segmenter labels differ from fresh run")
	}
}

// TestSegmenterConcurrentUse: one pooled Segmenter shared by concurrent
// callers (the server's usage pattern) produces correct results for every
// caller. Run under -race this also proves the pool handoff is clean.
func TestSegmenterConcurrentUse(t *testing.T) {
	s, err := New(SequentialEngine)
	if err != nil {
		t.Fatal(err)
	}
	images := []PaperImageID{Image1NestedRects128, Image2Rects128, Image3Circles128}
	refs := make([]*Segmentation, len(images))
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	for i, id := range images {
		refs[i] = freshReference(t, SequentialEngine, GeneratePaperImage(id), cfg)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, id := range images {
				seg, err := s.Segment(context.Background(), GeneratePaperImage(id), cfg)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, %v: %w", g, id, err)
					return
				}
				if !refs[i].EqualLabels(seg) {
					errs <- fmt.Errorf("goroutine %d, %v: labels differ", g, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSegmenterObserverSequence checks the typed event stream every engine
// emits: split start → split done → graph done → one event per merge
// iteration (1-based, contiguous) → merge done, with counts that
// reconcile against the returned Segmentation.
func TestSegmenterObserverSequence(t *testing.T) {
	im := GeneratePaperImage(Image1NestedRects128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	for _, kind := range []EngineKind{SequentialEngine, CM2DataParallel8K, CM5Async, NativeParallel} {
		t.Run(kind.String(), func(t *testing.T) {
			var mu sync.Mutex
			var events []StageEvent
			obs := ObserverFunc(func(ev StageEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			})
			s, err := New(kind, WithObserver(obs))
			if err != nil {
				t.Fatal(err)
			}
			seg, err := s.Segment(context.Background(), im, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if len(events) < 4 {
				t.Fatalf("only %d events", len(events))
			}
			if events[0].Kind != EventSplitStart {
				t.Fatalf("first event %v, want split-start", events[0].Kind)
			}
			last := events[len(events)-1]
			if last.Kind != EventMergeDone {
				t.Fatalf("last event %v, want merge-done", last.Kind)
			}
			if last.Regions != seg.FinalRegions || last.Iterations != seg.MergeIterations {
				t.Fatalf("merge-done reports %d regions / %d iterations, segmentation has %d / %d",
					last.Regions, last.Iterations, seg.FinalRegions, seg.MergeIterations)
			}
			var splitDone, graphDone bool
			var mergeIters, totalMerges int
			for _, ev := range events {
				switch ev.Kind {
				case EventSplitDone:
					splitDone = true
					if ev.Iterations != seg.SplitIterations || ev.Squares != seg.SquaresAfterSplit {
						t.Fatalf("split-done reports %d iters / %d squares, segmentation has %d / %d",
							ev.Iterations, ev.Squares, seg.SplitIterations, seg.SquaresAfterSplit)
					}
				case EventGraphDone:
					graphDone = true
				case EventMergeIteration:
					mergeIters++
					if ev.Iteration != mergeIters {
						t.Fatalf("merge iteration event %d arrived as number %d", ev.Iteration, mergeIters)
					}
					totalMerges += ev.Merges
				}
			}
			if !splitDone || !graphDone {
				t.Fatalf("missing stage events (split-done %v, graph-done %v)", splitDone, graphDone)
			}
			if mergeIters != seg.MergeIterations {
				t.Fatalf("%d merge iteration events, segmentation ran %d", mergeIters, seg.MergeIterations)
			}
			if want := seg.SquaresAfterSplit - seg.FinalRegions; totalMerges != want {
				t.Fatalf("events report %d merges, want %d (squares − final regions)", totalMerges, want)
			}
		})
	}
}

// TestSegmenterOptionDefaults: options act as session defaults — a zero
// Config selects them wholesale, an explicit Config wins, and a zero
// MaxSquare falls back to the session cap.
func TestSegmenterOptionDefaults(t *testing.T) {
	im := GeneratePaperImage(Image2Rects128)
	ctx := context.Background()

	explicit := Config{Threshold: 25, Tie: LargestIDTie, Seed: 7, MaxSquare: 8}
	ref := freshReference(t, SequentialEngine, im, explicit)

	s, err := New(SequentialEngine,
		WithThreshold(25), WithTie(LargestIDTie), WithSeed(7), WithMaxSquare(8))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := s.Segment(ctx, im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.EqualLabels(seg) {
		t.Fatal("zero Config did not adopt the session defaults")
	}

	// MaxSquare fallback: an explicit config with MaxSquare 0 inherits the
	// session cap; all other fields stay the caller's.
	partial, err := s.Segment(ctx, im, Config{Threshold: 25, Tie: LargestIDTie, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.EqualLabels(partial) {
		t.Fatal("MaxSquare 0 did not fall back to the session cap")
	}

	// An explicit config overrides the defaults entirely.
	over := Config{Threshold: 10, Tie: SmallestIDTie, MaxSquare: Unbounded}
	want := freshReference(t, SequentialEngine, im, over)
	got, err := s.Segment(ctx, im, over)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualLabels(got) {
		t.Fatal("explicit Config did not override the session defaults")
	}
}

// TestSegmenterOptionErrors: invalid options fail construction with
// descriptive errors.
func TestSegmenterOptionErrors(t *testing.T) {
	if _, err := New(SequentialEngine, WithWorkers(4)); err == nil {
		t.Error("WithWorkers on the sequential engine did not error")
	}
	if _, err := New(NativeParallel, WithWorkers(-1)); err == nil {
		t.Error("negative WithWorkers did not error")
	}
	if _, err := New(SequentialEngine, WithThreshold(-1)); err == nil {
		t.Error("negative WithThreshold did not error")
	}
	if _, err := New(SequentialEngine, WithMaxSquare(-2)); err == nil {
		t.Error("WithMaxSquare(-2) did not error")
	}
	if _, err := New(EngineKind(99)); err == nil {
		t.Error("unknown engine kind did not error")
	}
}

// TestSegmenterWithWorkers: a fixed-size native session still matches the
// reference (worker count must never affect labels).
func TestSegmenterWithWorkers(t *testing.T) {
	im := GeneratePaperImage(Image3Circles128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	ref := freshReference(t, SequentialEngine, im, cfg)
	for _, n := range []int{1, 3} {
		s, err := New(NativeParallel, WithWorkers(n))
		if err != nil {
			t.Fatal(err)
		}
		seg, err := s.Segment(context.Background(), im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.EqualLabels(seg) {
			t.Fatalf("native with %d workers differs from sequential reference", n)
		}
	}
}

// TestShimsRouteThroughSegmenter: the deprecated package-level one-shots
// remain byte-identical to direct engine runs.
func TestShimsRouteThroughSegmenter(t *testing.T) {
	im := GeneratePaperImage(Image2Rects128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 3}
	ref, err := core.Sequential{}.Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaShim, err := Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.EqualLabels(viaShim) {
		t.Fatal("Segment shim differs from core.Sequential")
	}
	viaNative, err := SegmentNative(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.EqualLabels(viaNative) {
		t.Fatal("SegmentNative shim differs from core.Sequential")
	}
}
