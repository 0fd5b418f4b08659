package main

import (
	"slices"
	"testing"
	"time"

	"regiongrow"
)

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: 30..40 counts once
		{ID: 4, Parent: 2, Name: "a.child", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130}, // runs past its parent: clipped
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 40}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	lt := layerTimes(spans)
	if lt["root"] != 40e-6 || lt["a.child"] != 10e-6 {
		t.Fatalf("layerTimes = %v", lt)
	}
}

func TestAttributionFlagsDoubleCounting(t *testing.T) {
	ms := int64(time.Millisecond)
	ok := []span{{ID: 1, Name: "op", Start: 0, End: 90 * ms}, {ID: 2, Parent: 1, Name: "x", Start: 0, End: 50 * ms}}
	un, err := attribution(ok, 100*time.Millisecond)
	if err != nil || un < 0.1-1e-9 || un > 0.1+1e-9 {
		t.Fatalf("attribution = %v, %v; want 0.1 unattributed", un, err)
	}
	// Two unrelated roots over the same interval: 200% of one caller's wall.
	twice := []span{{ID: 1, Name: "op", Start: 0, End: 100 * ms}, {ID: 2, Name: "op", Start: 0, End: 100 * ms}}
	if _, err := attribution(twice, 100*time.Millisecond); err == nil {
		t.Fatal("attribution accepted self times summing to 200% of the wall time")
	}
	if _, err := attribution(twice, 2*100*time.Millisecond); err != nil {
		t.Fatalf("attribution rejected two callers' spans: %v", err)
	}
}

func TestStageTracerBuildsOneTreePerRun(t *testing.T) {
	tr := newTracer()
	start := tr.now()
	st := startStages(tr, coreStages)
	for _, ev := range []regiongrow.StageEvent{
		{Kind: regiongrow.EventSplitStart},
		{Kind: regiongrow.EventSplitDone, Squares: 10},
		{Kind: regiongrow.EventGraphDone, Squares: 10},
		{Kind: regiongrow.EventMergeIteration, Iteration: 1, Merges: 4},
		{Kind: regiongrow.EventMergeIteration, Iteration: 2, Merges: 2},
		{Kind: regiongrow.EventMergeDone, Iterations: 2, Regions: 4},
	} {
		st.Observe(ev)
	}
	c := st.finish(start)
	if c != (stageCounts{ops: 1, squares: 10, rounds: 2, merges: 6, alive: 10 + 6}) {
		t.Fatalf("counts = %+v", c)
	}
	spans := tr.slice(0, tr.mark())
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
		if s.Trace != st.trace || (s.Name != "core.session") != (s.Parent == st.session) {
			t.Errorf("span %+v is not in the run's tree", s)
		}
	}
	want := []string{"quadsplit.split", "rag.graph", "rag.round", "rag.round", "core.finalize", "core.session"}
	if !slices.Equal(names, want) {
		t.Fatalf("spans = %v, want %v", names, want)
	}
	if _, err := attribution(spans, time.Duration(spans[len(spans)-1].End-start)); err != nil {
		t.Fatal(err)
	}
}
