package mpengine

import (
	"testing"
	"testing/quick"

	"regiongrow/internal/core"
	"regiongrow/internal/machine"
	"regiongrow/internal/mpvm"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

func newEngine(t *testing.T, cfg machine.ConfigID) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRejectsDataParallelConfig(t *testing.T) {
	if _, err := New(machine.CM2_8K); err == nil {
		t.Fatal("accepted a data-parallel configuration")
	}
}

func TestName(t *testing.T) {
	if newEngine(t, machine.CM5_LP).Name() != "message-passing/32n-LP" {
		t.Fatalf("Name = %q", newEngine(t, machine.CM5_LP).Name())
	}
	if newEngine(t, machine.CM5_Async).Scheme() != mpvm.Async {
		t.Fatal("Scheme wrong")
	}
}

func TestFactor(t *testing.T) {
	cases := []struct{ q, p1, p2 int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4}, {32, 4, 8},
	}
	for _, c := range cases {
		p1, p2, err := factor(c.q)
		if err != nil || p1 != c.p1 || p2 != c.p2 {
			t.Errorf("factor(%d) = (%d,%d,%v), want (%d,%d)", c.q, p1, p2, err, c.p1, c.p2)
		}
	}
	for _, q := range []int{0, -1, 3, 12} {
		if _, _, err := factor(q); err == nil {
			t.Errorf("factor(%d) accepted", q)
		}
	}
}

func TestRejectsBadGeometry(t *testing.T) {
	e := newEngine(t, machine.CM5_LP)
	// 100 is not divisible by the 4×8 node grid.
	if _, err := e.Segment(pixmap.Uniform(100, 5), core.Config{Threshold: 10}); err == nil {
		t.Fatal("accepted indivisible image")
	}
	// 32×32 on 32 nodes: tiles 8×4, but the default cap at N=32 is 4 —
	// divisible, so this should work.
	if _, err := e.Segment(pixmap.Uniform(32, 5), core.Config{Threshold: 10}); err != nil {
		t.Fatalf("32x32 rejected: %v", err)
	}
	// Cap 16 on 32×32: tile height 8 < 16 → misaligned.
	if _, err := e.Segment(pixmap.Uniform(32, 5), core.Config{Threshold: 10, MaxSquare: 16}); err == nil {
		t.Fatal("accepted cap exceeding tile")
	}
}

func assertMatchesSequential(t *testing.T, e *Engine, im *pixmap.Image, cfg core.Config) {
	t.Helper()
	want, err := core.Sequential{}.Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualLabels(got) {
		t.Fatalf("labels differ from sequential (tie=%v seed=%d)", cfg.Tie, cfg.Seed)
	}
	if want.SplitIterations != got.SplitIterations ||
		want.SquaresAfterSplit != got.SquaresAfterSplit ||
		want.MergeIterations != got.MergeIterations ||
		want.FinalRegions != got.FinalRegions {
		t.Fatalf("stats differ: split %d/%d squares %d/%d merge %d/%d regions %d/%d",
			want.SplitIterations, got.SplitIterations,
			want.SquaresAfterSplit, got.SquaresAfterSplit,
			want.MergeIterations, got.MergeIterations,
			want.FinalRegions, got.FinalRegions)
	}
	if err := core.Validate(got, im, cfg.Criterion()); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesSequentialOnPaperImages(t *testing.T) {
	for _, mc := range []machine.ConfigID{machine.CM5_LP, machine.CM5_Async} {
		e := newEngine(t, mc)
		for _, id := range pixmap.AllPaperImages() {
			if testing.Short() && id.Size() == 256 {
				continue
			}
			im := pixmap.Generate(id, pixmap.DefaultGenOptions())
			assertMatchesSequential(t, e, im, core.Config{Threshold: 10, Tie: rag.Random, Seed: 77})
		}
	}
}

func TestMatchesSequentialAllPolicies(t *testing.T) {
	e := newEngine(t, machine.CM5_Async)
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	for _, tie := range []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random} {
		assertMatchesSequential(t, e, im, core.Config{Threshold: 10, Tie: tie, Seed: 3})
	}
}

func TestSchemesProduceIdenticalResults(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 11}
	lp, err := newEngine(t, machine.CM5_LP).Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	as, err := newEngine(t, machine.CM5_Async).Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !lp.EqualLabels(as) || lp.MergeIterations != as.MergeIterations {
		t.Fatal("LP and Async disagree")
	}
	if as.MergeSim >= lp.MergeSim {
		t.Fatalf("Async merge %.3f not faster than LP %.3f", as.MergeSim, lp.MergeSim)
	}
}

func TestCustomNodeCountsProperty(t *testing.T) {
	// The node count must never change the segmentation.
	err := quick.Check(func(seed uint64, qRaw, tRaw uint8) bool {
		q := []int{1, 2, 4, 8, 16}[qRaw%5]
		im := pixmap.Random(32, seed)
		for i := range im.Pix {
			im.Pix[i] &= 0x3F
		}
		cfg := core.Config{Threshold: int(tRaw % 40), Tie: rag.Random, Seed: seed, MaxSquare: 4}
		want, err := core.Sequential{}.Segment(im, cfg)
		if err != nil {
			return false
		}
		e := NewCustom(q, mpvm.Async, machine.Get(machine.CM5_Async))
		got, err := e.Segment(im, cfg)
		if err != nil {
			return false
		}
		return want.EqualLabels(got) && want.MergeIterations == got.MergeIterations
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodeCluster(t *testing.T) {
	e := NewCustom(1, mpvm.LP, machine.Get(machine.CM5_LP))
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	assertMatchesSequential(t, e, im, core.Config{Threshold: 10, Tie: rag.SmallestID})
}

func TestSimulatedClocksPopulated(t *testing.T) {
	e := newEngine(t, machine.CM5_Async)
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	seg, err := e.Segment(im, core.Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if seg.SplitSim <= 0 || seg.MergeSim <= 0 {
		t.Fatalf("sim clocks: split=%v merge=%v", seg.SplitSim, seg.MergeSim)
	}
}

func TestCommStatsPopulated(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 4}
	lp, err := newEngine(t, machine.CM5_LP).Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	as, err := newEngine(t, machine.CM5_Async).Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Comm == nil || as.Comm == nil {
		t.Fatal("Comm stats missing")
	}
	if lp.Comm.LPSteps == 0 {
		t.Fatal("LP run recorded no ring steps")
	}
	if as.Comm.LPSteps != 0 {
		t.Fatalf("Async run recorded %d ring steps", as.Comm.LPSteps)
	}
	// LP sends a message every ring step; async sends only real payloads.
	if lp.Comm.Messages <= as.Comm.Messages {
		t.Fatalf("LP messages %d should exceed async %d", lp.Comm.Messages, as.Comm.Messages)
	}
	if as.Comm.Exchanges == 0 || as.Comm.Gathers == 0 || as.Comm.Barriers == 0 {
		t.Fatalf("collective counters empty: %+v", as.Comm)
	}
}

func TestUniformAndCheckerboard(t *testing.T) {
	e := newEngine(t, machine.CM5_Async)
	assertMatchesSequential(t, e, pixmap.Uniform(128, 7), core.Config{Threshold: 0})
	assertMatchesSequential(t, e, pixmap.Checkerboard(128, 0, 255), core.Config{Threshold: 10})
}
