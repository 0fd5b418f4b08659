package regiongrow

// Extension and ablation benchmarks beyond the paper's tables:
//
//	BenchmarkExtension_HPFDistribution — tests the paper's closing
//	    prediction that HPF data-distribution directives would bring the
//	    data-parallel implementation close to message passing.
//	BenchmarkScaling_DataParallelPE — split/merge simulated time versus
//	    processing element count (complexity section: O(N²/P + log P)).
//	BenchmarkScaling_MessagePassingNodes — simulated time versus node
//	    count for the message-passing engine.
//	BenchmarkAblation_SerialMerge — the R−1-iteration serial merge
//	    baseline against parallel mutual merging.
//	BenchmarkAblation_SplitCap — the N/8 square cap versus an unbounded
//	    split (how much does the paper's fixed iteration count cost?).

import (
	"context"
	"fmt"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/dpengine"
	"regiongrow/internal/machine"
	"regiongrow/internal/mpengine"
	"regiongrow/internal/mpvm"
)

// BenchmarkExtension_HPFDistribution runs the data-parallel program under
// the measured CM5-CMF profile, the hypothetical HPF profile, and the
// message-passing Async engine. The paper predicts HPF lands between the
// other two.
func BenchmarkExtension_HPFDistribution(b *testing.B) {
	im := GeneratePaperImage(Image1NestedRects128)
	cfg := DefaultConfig()
	run := func(b *testing.B, eng Engine) {
		var seg *Segmentation
		var err error
		for i := 0; i < b.N; i++ {
			seg, err = eng.SegmentContext(context.Background(), im, cfg, core.Run{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(seg.MergeSim, "sim-merge-s")
		b.ReportMetric(seg.SplitSim, "sim-split-s")
	}
	b.Run("cm5-cmf", func(b *testing.B) {
		run(b, dpengine.New(machine.CM5_CMF))
	})
	b.Run("cm5-hpf-hypothetical", func(b *testing.B) {
		run(b, dpengine.NewWithProfile(machine.CM5_CMF, machine.HPFHypothetical()))
	})
	b.Run("cm5-async", func(b *testing.B) {
		run(b, mpengine.New(machine.CM5_Async))
	})
}

// BenchmarkScaling_DataParallelPE sweeps the processing-element count of
// a CM-2-style machine.
func BenchmarkScaling_DataParallelPE(b *testing.B) {
	im := GeneratePaperImage(Image1NestedRects128)
	cfg := Config{Threshold: 10, Tie: SmallestIDTie}
	for _, pe := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("pe=%d", pe), func(b *testing.B) {
			eng := dpengine.NewWithProfile(machine.CM2_8K, machine.ScaledCM2(pe))
			var seg *Segmentation
			var err error
			for i := 0; i < b.N; i++ {
				seg, err = eng.SegmentContext(context.Background(), im, cfg, core.Run{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(seg.SplitSim, "sim-split-s")
			b.ReportMetric(seg.MergeSim, "sim-merge-s")
		})
	}
}

// BenchmarkScaling_MessagePassingNodes sweeps the node count of the
// message-passing cluster. The split cap is fixed at 8 so tiles stay
// aligned across all node counts.
func BenchmarkScaling_MessagePassingNodes(b *testing.B) {
	im := GeneratePaperImage(Image1NestedRects128)
	cfg := Config{Threshold: 10, Tie: SmallestIDTie, MaxSquare: 8}
	for _, nodes := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			eng := mpengine.NewCustom(nodes, mpvm.Async, machine.Get(machine.CM5_Async))
			var seg *Segmentation
			var err error
			for i := 0; i < b.N; i++ {
				seg, err = eng.SegmentContext(context.Background(), im, cfg, core.Run{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(seg.SplitSim, "sim-split-s")
			b.ReportMetric(seg.MergeSim, "sim-merge-s")
		})
	}
}

// BenchmarkAblation_SerialMerge contrasts the serial merge baseline
// against the parallel mutual-merge kernel on the host.
func BenchmarkAblation_SerialMerge(b *testing.B) {
	im := GeneratePaperImage(Image2Rects128)
	b.Run("serial-baseline", func(b *testing.B) {
		var seg *Segmentation
		var err error
		for i := 0; i < b.N; i++ {
			seg, err = SegmentSerial(context.Background(), im, Config{Threshold: 10})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(seg.MergeIterations), "merge-iters")
	})
	b.Run("mutual-parallel", func(b *testing.B) {
		seq := sessionOf(b, SequentialEngine)
		var seg *Segmentation
		var err error
		for i := 0; i < b.N; i++ {
			seg, err = seq.Segment(context.Background(), im, Config{Threshold: 10, Tie: RandomTie, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(seg.MergeIterations), "merge-iters")
	})
}

// BenchmarkAblation_SplitCap contrasts the paper's N/8 square cap with an
// unbounded split: the cap trades a cheaper, content-independent split
// for more squares entering the merge stage.
func BenchmarkAblation_SplitCap(b *testing.B) {
	im := GeneratePaperImage(Image1NestedRects128)
	for _, tc := range []struct {
		name string
		cap  int
	}{
		{"cap-n8", 0},
		{"unbounded", -1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1, MaxSquare: tc.cap}
			seq := sessionOf(b, SequentialEngine)
			var seg *core.Segmentation
			var err error
			for i := 0; i < b.N; i++ {
				seg, err = seq.Segment(context.Background(), im, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(seg.SquaresAfterSplit), "squares")
			b.ReportMetric(float64(seg.SplitIterations), "split-iters")
			b.ReportMetric(float64(seg.MergeIterations), "merge-iters")
		})
	}
}
