package core

import (
	"context"
	"errors"
	"testing"

	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// record returns a Run whose observer appends every event to *evs.
func record(evs *[]StageEvent) Run {
	return Run{Observer: ObserverFunc(func(ev StageEvent) { *evs = append(*evs, ev) })}
}

// TestSequentialEventStream pins every payload the mutual-merge host
// engines emit: the split and graph events carry the split result, one
// merge event per round carries that round's merge count, and the final
// event carries the totals of the returned Segmentation.
func TestSequentialEventStream(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	for _, eng := range []Engine{Sequential{}, Native{Workers: 1}, Native{Workers: 2}, Native{Workers: 3}} {
		var evs []StageEvent
		seg, err := eng.SegmentContext(context.Background(), im,
			Config{Threshold: 10, Tie: rag.Random, Seed: 2}, record(&evs))
		if err != nil {
			t.Fatal(err)
		}
		want := []StageEvent{
			{Kind: EventSplitStart},
			{Kind: EventSplitDone, Iterations: seg.SplitIterations, Squares: seg.SquaresAfterSplit},
			{Kind: EventGraphDone, Squares: seg.SquaresAfterSplit},
		}
		for i, m := range seg.MergesPerIter {
			want = append(want, StageEvent{Kind: EventMergeIteration, Iteration: i + 1, Merges: m})
		}
		want = append(want, StageEvent{Kind: EventMergeDone, Iterations: seg.MergeIterations, Regions: seg.FinalRegions})
		if len(evs) != len(want) {
			t.Fatalf("%+v: got %d events, want %d: %+v", eng, len(evs), len(want), evs)
		}
		for i := range want {
			if evs[i] != want[i] {
				t.Fatalf("%+v: event %d = %+v, want %+v", eng, i, evs[i], want[i])
			}
		}
	}
}

// TestSerialBaselineEventStream: the baseline shares the reference
// pipeline, so its split and graph events equal the sequential engine's;
// it reports no per-merge events, and its completion event carries its
// own totals.
func TestSerialBaselineEventStream(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	cfg := Config{Threshold: 10}
	var seqEvs, serEvs []StageEvent
	if _, err := (Sequential{}).SegmentContext(context.Background(), im, cfg, record(&seqEvs)); err != nil {
		t.Fatal(err)
	}
	seg, err := SerialBaseline{}.SegmentContext(context.Background(), im, cfg, record(&serEvs))
	if err != nil {
		t.Fatal(err)
	}
	if len(serEvs) != 4 {
		t.Fatalf("baseline emitted %d events, want split start/done, graph done, merge done: %+v", len(serEvs), serEvs)
	}
	for i := 0; i < 3; i++ {
		if serEvs[i] != seqEvs[i] {
			t.Fatalf("event %d = %+v, sequential engine emitted %+v", i, serEvs[i], seqEvs[i])
		}
	}
	done := StageEvent{Kind: EventMergeDone, Iterations: seg.MergeIterations, Regions: seg.FinalRegions}
	if serEvs[3] != done {
		t.Fatalf("completion event = %+v, want %+v", serEvs[3], done)
	}
}

func TestReferenceEnginesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	for _, eng := range []Engine{Sequential{}, SerialBaseline{}} {
		seg, err := eng.SegmentContext(ctx, im, Config{Threshold: 10}, Run{})
		if !errors.Is(err, context.Canceled) || seg != nil {
			t.Fatalf("%s on a cancelled ctx = %v, %v; want nil, context.Canceled", eng.Name(), seg, err)
		}
	}
}

// TestCancelAtGraphDoneAbortsMerge: an observer that cancels on the graph
// event stops both reference engines before their first merge.
func TestCancelAtGraphDoneAbortsMerge(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	for _, eng := range []Engine{Sequential{}, SerialBaseline{}} {
		ctx, cancel := context.WithCancel(context.Background())
		var after []EventKind
		graphDone := false
		run := Run{Observer: ObserverFunc(func(ev StageEvent) {
			if graphDone {
				after = append(after, ev.Kind)
			}
			if ev.Kind == EventGraphDone {
				graphDone = true
				cancel()
			}
		})}
		seg, err := eng.SegmentContext(ctx, im, Config{Threshold: 10, Tie: rag.Random, Seed: 1}, run)
		cancel()
		if !errors.Is(err, context.Canceled) || seg != nil {
			t.Fatalf("%s: %v, %v; want nil, context.Canceled", eng.Name(), seg, err)
		}
		if !graphDone || len(after) != 0 {
			t.Fatalf("%s: graph event seen %v, events after it %v", eng.Name(), graphDone, after)
		}
	}
}

// TestScratchReuseByteIdentical: one split Scratch carried across runs
// of different image sizes leaves both reference engines' labels
// identical to fresh-buffer runs.
func TestScratchReuseByteIdentical(t *testing.T) {
	sc := &quadsplit.Scratch{}
	ids := []pixmap.PaperImageID{pixmap.Image4NestedRects256, pixmap.Image2Rects128, pixmap.Image3Circles128}
	for _, eng := range []Engine{Sequential{}, SerialBaseline{}} {
		for _, id := range ids {
			im := pixmap.Generate(id, pixmap.DefaultGenOptions())
			cfg := Config{Threshold: 10, Tie: rag.Random, Seed: 4}
			want, err := runEngine(eng, im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.SegmentContext(context.Background(), im, cfg, Run{Scratch: sc})
			if err != nil {
				t.Fatal(err)
			}
			if !want.EqualLabels(got) || got.FinalRegions != want.FinalRegions {
				t.Fatalf("%s on %v: labels with a reused Scratch differ from a fresh run", eng.Name(), id)
			}
		}
	}
}
