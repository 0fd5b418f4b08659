package distengine_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/distengine/disttest"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

// segment runs eng once with a background context and a zero core.Run:
// no observer, no pooled scratch.
func segment(eng core.Engine, im *pixmap.Image, cfg core.Config) (*core.Segmentation, error) {
	return eng.SegmentContext(context.Background(), im, cfg, core.Run{})
}

// startCluster launches n in-process workers; see disttest.StartCluster
// (shared with the facade and server suites).
func startCluster(t testing.TB, n int) []string {
	return disttest.StartCluster(t, n)
}

// TestDistMatchesSequential: the distributed engine produces labels
// byte-identical to the sequential engine across all six paper images ×
// three tie policies, and its global statistics agree too.
func TestDistMatchesSequential(t *testing.T) {
	addrs := startCluster(t, 4)
	eng := distengine.New(addrs)
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
				t.Fatalf("%v/%v dist: %v", id, tie, err)
			}
			if !got.EqualLabels(want) {
				t.Errorf("%v/%v: distributed labels differ from sequential", id, tie)
			}
			if got.FinalRegions != want.FinalRegions ||
				got.SplitIterations != want.SplitIterations ||
				got.MergeIterations != want.MergeIterations ||
				got.SquaresAfterSplit != want.SquaresAfterSplit {
				t.Errorf("%v/%v: stats (regions %d, split %d, merge %d, squares %d) != sequential (%d, %d, %d, %d)",
					id, tie,
					got.FinalRegions, got.SplitIterations, got.MergeIterations, got.SquaresAfterSplit,
					want.FinalRegions, want.SplitIterations, want.MergeIterations, want.SquaresAfterSplit)
			}
			if got.Comm == nil || got.Comm.Messages == 0 {
				t.Errorf("%v/%v: no communication recorded: %+v", id, tie, got.Comm)
			}
		}
	}
}

// TestDistWorkerCounts: every worker count (including more workers than
// bands, which leaves the surplus idle) yields sequential-identical
// labels.
func TestDistWorkerCounts(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 7}
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 5, 16} {
		addrs := startCluster(t, n)
		got, err := segment(distengine.New(addrs), im, cfg)
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		if !got.EqualLabels(want) {
			t.Errorf("%d workers: labels differ from sequential", n)
		}
	}
}

// TestDistNarrowImage: an image narrower than the split cap whose height
// is not a multiple of the cap (so the final band is shorter than the
// cap, and the band-local cap resolves smaller than the coordinator's)
// still matches the sequential engine exactly.
func TestDistNarrowImage(t *testing.T) {
	im := pixmap.New(8, 130) // cap resolves to 16: blocks = 9, last band 2 rows
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			im.Set(x, y, uint8((x/3)*40+(y/7)*30))
		}
	}
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 5}
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startCluster(t, 9) // one worker per block, incl. the short band
	got, err := segment(distengine.New(addrs), im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualLabels(want) {
		t.Error("narrow-image labels differ from sequential")
	}
}

// TestDistObserverEvents: the coordinator relays rank 0's stage events in
// engine order, and the merge-iteration count reconciles with the result.
func TestDistObserverEvents(t *testing.T) {
	addrs := startCluster(t, 2)
	eng := distengine.New(addrs)
	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	var mu sync.Mutex
	var events []core.StageEvent
	run := core.Run{Observer: core.ObserverFunc(func(ev core.StageEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})}
	seg, err := eng.SegmentContext(context.Background(), im, core.Config{Threshold: 10, Tie: rag.SmallestID}, run)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) < 4 {
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	if events[0].Kind != core.EventSplitStart {
		t.Errorf("first event %v, want split-start", events[0].Kind)
	}
	if events[1].Kind != core.EventSplitDone || events[1].Squares != seg.SquaresAfterSplit {
		t.Errorf("second event %+v, want split-done with %d squares", events[1], seg.SquaresAfterSplit)
	}
	if events[2].Kind != core.EventGraphDone {
		t.Errorf("third event %v, want graph-done", events[2].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != core.EventMergeDone || last.Regions != seg.FinalRegions {
		t.Errorf("last event %+v, want merge-done with %d regions", last, seg.FinalRegions)
	}
	iters := 0
	for _, ev := range events {
		if ev.Kind == core.EventMergeIteration {
			iters++
		}
	}
	if iters != seg.MergeIterations {
		t.Errorf("%d merge-iteration events, want %d", iters, seg.MergeIterations)
	}
}

// TestDistCancellation: cancelling mid-merge returns ctx.Err() within one
// iteration, leaks no goroutines, and leaves the workers alive for the
// next job.
func TestDistCancellation(t *testing.T) {
	addrs := startCluster(t, 4)
	eng := distengine.New(addrs)
	im := pixmap.Generate(pixmap.Image6Tool256, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	run := core.Run{Observer: core.ObserverFunc(func(ev core.StageEvent) {
		if ev.Kind == core.EventMergeIteration {
			cancel() // fire mid-merge, from the observer path
		}
	})}
	seg, err := eng.SegmentContext(ctx, im, cfg, run)
	if err != context.Canceled {
		t.Fatalf("SegmentContext = %v, %v; want context.Canceled", seg, err)
	}

	// Coordinator goroutines and worker job goroutines must drain.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}

	// The cluster is still serviceable.
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := segment(eng, im, cfg)
	if err != nil {
		t.Fatalf("post-cancel segment: %v", err)
	}
	if !got.EqualLabels(want) {
		t.Error("post-cancel labels differ from sequential")
	}
}

// TestDistCancelBeforeStart: an already-cancelled context returns
// immediately without touching the cluster.
func TestDistCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := distengine.New([]string{"127.0.0.1:1"}) // nothing listens; must not matter
	im := pixmap.New(16, 16)
	if _, err := eng.SegmentContext(ctx, im, core.Config{}, core.Run{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDistDialFailure: a cluster whose only worker is unreachable yields
// the typed no-healthy-workers error (the dial failure is retryable, the
// retry probe finds nobody), not a hang.
func TestDistDialFailure(t *testing.T) {
	eng := distengine.New([]string{"127.0.0.1:1"})
	eng.SetTuning(distengine.Tuning{ProbeTimeout: 200 * time.Millisecond})
	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	_, err := segment(eng, im, core.Config{Threshold: 10})
	if !errors.Is(err, distengine.ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestDistWorkerDeath: a worker dying mid-job no longer fails the job —
// the coordinator retries across the workers that still answer a health
// probe, re-banding the image, and the labels stay byte-identical to the
// sequential engine's.
func TestDistWorkerDeath(t *testing.T) {
	addrs := startCluster(t, 3)
	// A trap listener that accepts a connection, reads the job, and drops
	// the connection without answering any collective — then answers no
	// health probe, like a crashed process whose port is gone.
	trap, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := trap.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 1024)
		_, _ = conn.Read(buf)
		conn.Close()
		trap.Close()
	}()
	eng := distengine.New([]string{addrs[0], trap.Addr().String(), addrs[1], addrs[2]})
	eng.SetTuning(distengine.Tuning{ProbeTimeout: 300 * time.Millisecond})
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var got *core.Segmentation
	go func() {
		seg, err := segment(eng, im, cfg)
		got = seg
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("segment did not recover from the dead worker: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung on a dead worker")
	}
	if !got.EqualLabels(want) {
		t.Error("recovered labels differ from sequential")
	}
	if got.Comm == nil || got.Comm.Retries == 0 {
		t.Errorf("recovery not recorded in Comm.Retries: %+v", got.Comm)
	}
}
