package distengine_test

// The in-process channel-backed transport (transport.Mem) is a
// first-class engine path, not just chaos-test scaffolding: a single
// binary can serve the distributed engine against in-process workers.
// These tests run the same byte-identity property suite the TCP path is
// pinned by, so the two transports can never drift apart.

import (
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/distengine/disttest"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
	"regiongrow/internal/transport"
)

// TestInProcMatchesSequential: the engine over the Mem transport
// produces labels and statistics byte-identical to the sequential
// engine across all six paper images × three tie policies.
func TestInProcMatchesSequential(t *testing.T) {
	mem := transport.NewMem()
	addrs := disttest.StartClusterOver(t, mem, 4)
	eng := distengine.NewOver(mem, addrs)
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		for _, tie := range []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random} {
			cfg := core.Config{Threshold: 10, Tie: tie, Seed: 1}
			want, err := segment(core.Sequential{}, im, cfg)
			if err != nil {
				t.Fatalf("%v/%v sequential: %v", id, tie, err)
			}
			got, err := segment(eng, im, cfg)
			if err != nil {
				t.Fatalf("%v/%v in-proc: %v", id, tie, err)
			}
			if !got.EqualLabels(want) {
				t.Errorf("%v/%v: in-proc labels differ from sequential", id, tie)
			}
			if got.FinalRegions != want.FinalRegions ||
				got.SplitIterations != want.SplitIterations ||
				got.MergeIterations != want.MergeIterations ||
				got.SquaresAfterSplit != want.SquaresAfterSplit {
				t.Errorf("%v/%v: in-proc stats diverge from sequential", id, tie)
			}
			if got.Comm == nil || got.Comm.Messages == 0 {
				t.Errorf("%v/%v: no communication recorded: %+v", id, tie, got.Comm)
			}
		}
	}
}

// TestInProcWorkerCounts: every worker count over the Mem transport
// (including more workers than bands) yields sequential-identical
// labels, and the TCP and Mem transports agree with each other at every
// count by transitivity.
func TestInProcWorkerCounts(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 7}
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 5, 16} {
		mem := transport.NewMem()
		addrs := disttest.StartClusterOver(t, mem, n)
		got, err := segment(distengine.NewOver(mem, addrs), im, cfg)
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		if !got.EqualLabels(want) {
			t.Errorf("%d workers: in-proc labels differ from sequential", n)
		}
	}
}
