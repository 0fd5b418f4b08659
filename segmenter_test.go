package regiongrow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"regiongrow/internal/core"
)

// freshReference runs a throwaway engine directly — no session pool, no
// observer — as the ground truth pooled runs must match byte for byte.
func freshReference(t *testing.T, kind EngineKind, im *Image, cfg Config) *Segmentation {
	t.Helper()
	seg, err := engineOf(t, kind).SegmentContext(context.Background(), im, cfg, core.Run{})
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

// TestSegmenterOptionErrors: invalid options fail construction with
// descriptive errors.
func TestSegmenterOptionErrors(t *testing.T) {
	if _, err := New(SequentialEngine, WithWorkers(4)); err == nil {
		t.Error("WithWorkers on the sequential engine did not error")
	}
	if _, err := New(NativeParallel, WithWorkers(-1)); err == nil {
		t.Error("negative WithWorkers did not error")
	}
	if _, err := New(EngineKind(99)); err == nil {
		t.Error("unknown engine kind did not error")
	}
}

// badConfigs holds one Config per field Config.Check refuses.
var badConfigs = map[string]Config{
	"tie":       {Threshold: 10, Tie: TiePolicy(7)},
	"threshold": {Threshold: -3},
	"maxsquare": {Threshold: 10, MaxSquare: -2},
}

// TestSegmentRefusesInvalidConfig: every local engine kind, SegmentSerial
// and Validate refuse each invalid field with ErrInvalidConfig before any
// work, instead of panicking inside an engine (on NativeParallel, on a
// worker goroutine) or judging the segmentation under a threshold no
// engine runs.
func TestSegmentRefusesInvalidConfig(t *testing.T) {
	im := GeneratePaperImage(Image1NestedRects128)
	valid, err := segmentKind(SequentialEngine, im, Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	for field, cfg := range badConfigs {
		if seg, err := SegmentSerial(context.Background(), im, cfg); !errors.Is(err, ErrInvalidConfig) || seg != nil {
			t.Errorf("SegmentSerial, bad %s: got %v, %v; want nil, ErrInvalidConfig", field, seg, err)
		}
		if err := Validate(valid, im, cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Validate, bad %s: got %v; want ErrInvalidConfig", field, err)
		}
	}
	for _, kind := range AllEngineKinds() {
		if kind == Distributed {
			continue // needs a cluster; decodeJob's check covers its workers
		}
		s, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		for field, cfg := range badConfigs {
			events := 0
			obs := ObserverFunc(func(StageEvent) { events++ })
			seg, err := s.SegmentObserved(context.Background(), im, cfg, obs)
			if !errors.Is(err, ErrInvalidConfig) || seg != nil {
				t.Errorf("%v, bad %s: got %v, %v; want nil, ErrInvalidConfig", kind, field, seg, err)
			}
			if events != 0 {
				t.Errorf("%v, bad %s: %d stage events before the refusal", kind, field, events)
			}
		}
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
