package rag

import (
	"context"
	"errors"
	"slices"
	"testing"

	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
)

// countdownCtx reports no error for its first n Err calls and
// context.Canceled from then on, so a test can cancel a loop at an exact
// check without racing a goroutine.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// pixelImage is a small random image with few grey levels.
func pixelImage(seed uint64) *pixmap.Image {
	im := pixmap.Random(12, seed)
	for i := range im.Pix {
		im.Pix[i] &= 0x0F
	}
	return im
}

// pixelGraph is the one-vertex-per-pixel graph of pixelImage(seed), so
// MergeAll runs several rounds.
func pixelGraph(seed uint64) *Graph {
	im := pixelImage(seed)
	return build(im, pixelLabels(len(im.Pix)), 6)
}

func TestBuildFromLabelsCancelled(t *testing.T) {
	im := pixmap.Random(16, 1)
	labels := make([]int32, len(im.Pix))
	for i := range labels {
		labels[i] = int32(i)
	}
	g, err := BuildFromLabels(cancelled(), im, labels, 10)
	if !errors.Is(err, context.Canceled) || g != nil {
		t.Fatalf("BuildFromLabels on a cancelled ctx = %v, %v; want nil, context.Canceled", g, err)
	}
}

// TestAddSquaresCancelled: a cancelled context stops the square build
// before it adds anything, and a context that becomes done after the
// first check stops it a few thousand squares in, with context.Canceled
// both times.
func TestAddSquaresCancelled(t *testing.T) {
	im := pixmap.Random(128, 1)
	sp, err := quadsplit.Split(context.Background(), im, 0, quadsplit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Squares) <= 2*addCheckSquares {
		t.Fatalf("the split has %d squares; the test needs more than %d", len(sp.Squares), 2*addCheckSquares)
	}
	g := NewGraph(0)
	if err := g.AddSquares(cancelled(), sp.Squares, sp.Edges, im.W, 0, im.W); !errors.Is(err, context.Canceled) || g.Slots() != 0 {
		t.Fatalf("AddSquares on a cancelled ctx = %v with %d slots; want context.Canceled and none", err, g.Slots())
	}
	g = NewGraph(0)
	err = g.AddSquares(&countdownCtx{Context: context.Background(), n: 1}, sp.Squares, sp.Edges, im.W, 0, im.W)
	if !errors.Is(err, context.Canceled) || g.Slots() != addCheckSquares {
		t.Fatalf("AddSquares cancelled after one check = %v with %d slots; want context.Canceled and %d", err, g.Slots(), addCheckSquares)
	}
}

// TestDriveCancelledBeforeFirstRound: Drive checks ctx before the first
// round, so a cancelled run never evaluates an iteration.
func TestDriveCancelledBeforeFirstRound(t *testing.T) {
	calls := 0
	stats, err := Drive(cancelled(), Random,
		func(TiePolicy, int) (int, bool, error) { calls++; return 1, true, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 || stats.Iterations != 0 {
		t.Fatalf("cancelled Drive ran %d rounds (stats %+v)", calls, stats)
	}
}

// TestDriveStopsWithinOneRound: cancelling during round k returns the
// stats of exactly k rounds.
func TestDriveStopsWithinOneRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stats, err := Drive(ctx, SmallestID,
		func(_ TiePolicy, iter int) (int, bool, error) {
			if iter == 2 {
				cancel()
			}
			return 1, true, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Iterations != 2 || !slices.Equal(stats.MergesPerIter, []int{1, 1}) {
		t.Fatalf("stats = %+v, want two one-merge rounds", stats)
	}
}

// TestDriveReturnsRoundError: a round's error ends Drive with that error
// and the stats of the rounds before it, whether the round failed before
// or after it found an active edge.
func TestDriveReturnsRoundError(t *testing.T) {
	boom := errors.New("boom")
	for _, active := range []bool{false, true} {
		stats, err := Drive(context.Background(), Random,
			func(_ TiePolicy, iter int) (int, bool, error) {
				if iter == 3 {
					return 5, active, boom
				}
				return iter, true, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("active %v: err = %v, want the round's error", active, err)
		}
		if stats.Iterations != 2 || !slices.Equal(stats.MergesPerIter, []int{1, 2}) {
			t.Fatalf("active %v: stats = %+v, want the two rounds before the error", active, stats)
		}
	}
}

// TestDriveForcesSmallestIDAfterThreeStalls pins the stall accounting
// every engine shares: under Random, the round after three merge-free
// rounds runs SmallestID and counts as a forced resolution; SmallestID
// itself is never forced.
func TestDriveForcesSmallestIDAfterThreeStalls(t *testing.T) {
	for _, policy := range []TiePolicy{Random, SmallestID} {
		var seen []TiePolicy
		rounds := 0
		stats, err := Drive(context.Background(), policy,
			func(effective TiePolicy, iter int) (int, bool, error) {
				if rounds == 4 {
					return 0, false, nil
				}
				rounds++
				if iter != rounds {
					t.Fatalf("%v: round %d numbered %d", policy, rounds, iter)
				}
				seen = append(seen, effective)
				if rounds == 4 {
					return 1, true, nil
				}
				return 0, true, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		want := []TiePolicy{policy, policy, policy, SmallestID}
		wantForced := 1
		if policy == SmallestID {
			wantForced = 0
		}
		if !slices.Equal(seen, want) || stats.ForcedResolutions != wantForced {
			t.Fatalf("%v: policies %v, forced %d; want %v, %d", policy, seen, stats.ForcedResolutions, want, wantForced)
		}
		if !slices.Equal(stats.MergesPerIter, []int{0, 0, 0, 1}) {
			t.Fatalf("%v: merges per round %v", policy, stats.MergesPerIter)
		}
	}
}

// TestMergeAllOnRoundReportsEveryRound: onRound sees every round once, in
// order, with the merge count the returned stats record for it.
func TestMergeAllOnRoundReportsEveryRound(t *testing.T) {
	for _, policy := range AllTiePolicies() {
		g := pixelGraph(7)
		var iters, merges []int
		stats, err := g.MergeAll(context.Background(), policy, 11, func(iter, merged int) {
			iters = append(iters, iter)
			merges = append(merges, merged)
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Iterations < 2 {
			t.Fatalf("%v: only %d rounds; the test graph should need several", policy, stats.Iterations)
		}
		for i, it := range iters {
			if it != i+1 {
				t.Fatalf("%v: round %d reported as %d", policy, i+1, it)
			}
		}
		if len(iters) != stats.Iterations || !slices.Equal(merges, stats.MergesPerIter) {
			t.Fatalf("%v: onRound saw %v, stats record %v", policy, merges, stats.MergesPerIter)
		}
	}
}

// TestMergeAllMatchesWithoutCallback: observing the rounds does not change
// the merge: with and without a callback, the arena resolves the pixels
// as the reference loop's merges do.
func TestMergeAllMatchesWithoutCallback(t *testing.T) {
	g1, g2 := pixelGraph(3), pixelGraph(3)
	ids := slices.Clone(g1.ids)
	s1 := mergeAll(g1, Random, 5)
	s2, err := g2.MergeAll(context.Background(), Random, 5, func(int, int) {})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s1.MergesPerIter, s2.MergesPerIter) || s1.ForcedResolutions != s2.ForcedResolutions {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	_, ref := referenceMergeAll(pixelGraph(3), Random, 5)
	im := pixelImage(3)
	checkRelabel(t, "without callback", g1, im, pixelSquares(im), ids, ref)
	checkRelabel(t, "with callback", g2, im, pixelSquares(im), ids, ref)
}

func TestMergeAllCancelled(t *testing.T) {
	g := pixelGraph(7)
	before := g.NumVertices()
	stats, err := g.MergeAll(cancelled(), Random, 1, func(int, int) {
		t.Fatal("onRound called on a cancelled run")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Iterations != 0 || g.NumVertices() != before {
		t.Fatalf("cancelled MergeAll changed the graph: %d rounds, %d→%d vertices", stats.Iterations, before, g.NumVertices())
	}
}

// TestMergeAllCancelFromOnRound: cancelling from the round callback — the
// path a cancelling observer takes — stops after that round, and the
// relabel shows exactly that round's merges: each joined two one-pixel
// regions.
func TestMergeAllCancelFromOnRound(t *testing.T) {
	g := pixelGraph(7)
	before := g.NumVertices()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stats, err := g.MergeAll(ctx, SmallestID, 0, func(iter, merged int) { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Iterations != 1 {
		t.Fatalf("ran %d rounds after cancelling in round 1", stats.Iterations)
	}
	im := pixelImage(7)
	labels, regions := g.Relabel(pixelSquares(im), im.W, im.H)
	absorbed, pairs := 0, 0
	for i, id := range labels {
		if id != int32(i) {
			absorbed++
		}
	}
	for _, r := range regions {
		if r.Area == 2 {
			pairs++
		}
	}
	merged := stats.MergesPerIter[0]
	if absorbed != merged || pairs != merged || len(regions) != before-merged || g.NumVertices() != before-merged {
		t.Fatalf("round 1 made %d merges; relabel moved %d pixels into %d two-pixel regions, %d regions, %d→%d vertices",
			merged, absorbed, pairs, len(regions), before, g.NumVertices())
	}
}

// TestMergeSerialStopsWithinOneMerge: the baseline checks ctx before every
// one-merge iteration.
func TestMergeSerialStopsWithinOneMerge(t *testing.T) {
	vals := make([]uint8, 9)
	for i := range vals {
		vals[i] = 7
	}
	for _, allowed := range []int{0, 3} {
		g := stripesGraph(vals, 0)
		stats, err := g.MergeSerial(&countdownCtx{Context: context.Background(), n: allowed})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("allowed %d: err = %v, want context.Canceled", allowed, err)
		}
		if stats.Iterations != allowed || g.NumVertices() != len(vals)-allowed {
			t.Fatalf("allowed %d checks: %d merges, %d vertices left", allowed, stats.Iterations, g.NumVertices())
		}
	}
}
