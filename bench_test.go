package regiongrow

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section:
//
//	BenchmarkTable1_Image1 … BenchmarkTable6_Image6 — the six per-image
//	    tables: split/merge simulated seconds and iteration counts for the
//	    five machine configurations (reported as custom metrics).
//	BenchmarkFigure3_MergeComparison — the merge-stage comparison across
//	    all six images per configuration.
//	BenchmarkAblation_TieBreaking — the paper's random-vs-ID tie-break
//	    claim (C1): merges per iteration and iteration counts per policy.
//	BenchmarkAblation_CommScheme — LP vs Async exchange (C2).
//	BenchmarkSplitStage — split-stage scaling with image size.
//	BenchmarkBaseline_CCL — classical connected-component labelling
//	    baseline vs the full split+merge pipeline (host wall time).
//
// Simulated machine seconds are attached as ReportMetric values
// (sim-split-s, sim-merge-s, merge-iters); ns/op measures the host.

import (
	"context"
	"fmt"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/unionfind"
)

// benchTable runs one paper table: every machine configuration on one
// image, attaching the simulated stage times the table reports.
func benchTable(b *testing.B, id PaperImageID) {
	im := GeneratePaperImage(id)
	for _, kind := range tableKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			eng := engineOf(b, kind)
			cfg := DefaultConfig()
			var seg *Segmentation
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg, err = eng.SegmentContext(context.Background(), im, cfg, core.Run{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(seg.SplitSim, "sim-split-s")
			b.ReportMetric(seg.MergeSim, "sim-merge-s")
			b.ReportMetric(float64(seg.SplitIterations), "split-iters")
			b.ReportMetric(float64(seg.MergeIterations), "merge-iters")
			b.ReportMetric(float64(seg.SquaresAfterSplit), "squares")
			b.ReportMetric(float64(seg.FinalRegions), "regions")
		})
	}
}

func BenchmarkTable1_Image1(b *testing.B) { benchTable(b, Image1NestedRects128) }
func BenchmarkTable2_Image2(b *testing.B) { benchTable(b, Image2Rects128) }
func BenchmarkTable3_Image3(b *testing.B) { benchTable(b, Image3Circles128) }
func BenchmarkTable4_Image4(b *testing.B) { benchTable(b, Image4NestedRects256) }
func BenchmarkTable5_Image5(b *testing.B) { benchTable(b, Image5Rects256) }
func BenchmarkTable6_Image6(b *testing.B) { benchTable(b, Image6Tool256) }

// BenchmarkFigure3_MergeComparison reproduces the bar chart: total
// merge-stage simulated time per configuration summed over images 1–6.
func BenchmarkFigure3_MergeComparison(b *testing.B) {
	images := make([]*Image, 0, 6)
	for _, id := range AllPaperImageIDs() {
		images = append(images, GeneratePaperImage(id))
	}
	for _, kind := range tableKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			eng := engineOf(b, kind)
			cfg := DefaultConfig()
			total := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total = 0
				for _, im := range images {
					seg, err := eng.SegmentContext(context.Background(), im, cfg, core.Run{})
					if err != nil {
						b.Fatal(err)
					}
					total += seg.MergeSim
				}
			}
			b.StopTimer()
			b.ReportMetric(total, "sim-merge-total-s")
		})
	}
}

// BenchmarkAblation_TieBreaking quantifies claim C1: random tie-breaking
// achieves more merges per iteration than ID-based tie-breaking. It times
// all 18 paper cells (three policies × six images) on the sequential
// engine, whose time is mostly merge rounds.
func BenchmarkAblation_TieBreaking(b *testing.B) {
	for _, tc := range []struct {
		name string
		tie  TiePolicy
	}{
		{"smallest-id", SmallestIDTie},
		{"largest-id", LargestIDTie},
		{"random", RandomTie},
	} {
		for _, id := range AllPaperImageIDs() {
			b.Run(fmt.Sprintf("%s/image%d", tc.name, int(id)), func(b *testing.B) {
				im := GeneratePaperImage(id)
				cfg := Config{Threshold: 10, Tie: tc.tie, Seed: 1}
				seq := sessionOf(b, SequentialEngine)
				var seg *Segmentation
				var err error
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seg, err = seq.Segment(context.Background(), im, cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(seg.MergeIterations), "merge-iters")
				mpi := 0.0
				if seg.MergeIterations > 0 {
					mpi = float64(seg.SquaresAfterSplit-seg.FinalRegions) / float64(seg.MergeIterations)
				}
				b.ReportMetric(mpi, "merges/iter")
			})
		}
	}
}

// BenchmarkAblation_CommScheme isolates claim C2: the Async exchange
// scheme beats Linear Permutation.
func BenchmarkAblation_CommScheme(b *testing.B) {
	for _, kind := range []EngineKind{CM5LinearPermutation, CM5Async} {
		for _, id := range []PaperImageID{Image1NestedRects128, Image4NestedRects256} {
			b.Run(fmt.Sprintf("%s/image%d", kind, int(id)), func(b *testing.B) {
				im := GeneratePaperImage(id)
				eng := engineOf(b, kind)
				cfg := DefaultConfig()
				var seg *Segmentation
				var err error
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seg, err = eng.SegmentContext(context.Background(), im, cfg, core.Run{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(seg.MergeSim, "sim-merge-s")
			})
		}
	}
}

// BenchmarkSplitStage measures split-stage scaling with image size on the
// sequential engine (the paper's split complexity is O(N²/P + log P);
// sequentially that is O(N² log N) worst case, O(N²) with the cap). The
// noise-512 row is the worst case for the split's square list: nearly
// every square of a 512² random image is a single pixel.
func BenchmarkSplitStage(b *testing.B) {
	run := func(name string, im *Image) {
		b.Run(name, func(b *testing.B) {
			cfg := Config{Threshold: 10}
			seq := sessionOf(b, SequentialEngine)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := seq.Segment(context.Background(), im, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{64, 128, 256, 512} {
		im := GeneratePaperImage(Image1NestedRects128)
		if n != 128 {
			im = nestedAt(n)
		}
		run(fmt.Sprintf("n=%d", n), im)
	}
	run("noise-512", pixmap.Random(512, 1))
}

// nestedAt builds a nested-rectangles image at an arbitrary size.
func nestedAt(n int) *Image {
	im := NewImage(n, n)
	im.FillRect(0, 0, n, n, 40)
	o := n/8 + 2
	im.FillRect(o, o, n-o, n-o, 180)
	return im
}

// BenchmarkBaseline_CCL compares the classical connected-component
// labelling baseline against the full split+merge pipeline on the host.
func BenchmarkBaseline_CCL(b *testing.B) {
	im := GeneratePaperImage(Image3Circles128)
	b.Run("ccl", func(b *testing.B) {
		comps := 0
		for i := 0; i < b.N; i++ {
			_, comps = unionfind.CCL(im, 10)
		}
		b.ReportMetric(float64(comps), "regions")
	})
	b.Run("split+merge", func(b *testing.B) {
		seq := sessionOf(b, SequentialEngine)
		var seg *core.Segmentation
		var err error
		for i := 0; i < b.N; i++ {
			seg, err = seq.Segment(context.Background(), im, Config{Threshold: 10, Tie: RandomTie, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(seg.FinalRegions), "regions")
	})
}

// BenchmarkNativeVsSequential compares host wall time of the native
// engine against the single-threaded reference on the paper's 128px and
// 256px images plus a 512px upscale — the speedup benchmark for the
// native engine (only its split and graph build run on GOMAXPROCS
// goroutines, so the gap is at most theirs; ns/op is the metric to
// compare between the sequential/ and native/ variants of each image).
func BenchmarkNativeVsSequential(b *testing.B) {
	im512, err := GeneratePaperImage(Image6Tool256).Upsample(2)
	if err != nil {
		b.Fatal(err)
	}
	images := []struct {
		name string
		im   *Image
	}{
		{"image3-circles-128", GeneratePaperImage(Image3Circles128)},
		{"image4-nested-256", GeneratePaperImage(Image4NestedRects256)},
		{"image6-tool-256", GeneratePaperImage(Image6Tool256)},
		{"tool-512", im512},
	}
	cfg := DefaultConfig()
	for _, tc := range images {
		ref, err := segmentKind(SequentialEngine, tc.im, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []EngineKind{SequentialEngine, NativeParallel} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, kind), func(b *testing.B) {
				eng := engineOf(b, kind)
				var seg *Segmentation
				var err error
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seg, err = eng.SegmentContext(context.Background(), tc.im, cfg, core.Run{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if !ref.EqualLabels(seg) {
					b.Fatal("labels differ from sequential reference")
				}
				b.ReportMetric(float64(seg.FinalRegions), "regions")
			})
		}
	}
}

// BenchmarkEngineWallTime measures the host-side wall performance of the
// four execution models on one image (the goroutine-tiled SIMD emulation,
// the goroutine cluster, and the native shared-memory engine versus the
// single-threaded reference).
func BenchmarkEngineWallTime(b *testing.B) {
	im := GeneratePaperImage(Image2Rects128)
	for _, kind := range []EngineKind{SequentialEngine, CM2DataParallel8K, CM5Async, NativeParallel} {
		b.Run(kind.String(), func(b *testing.B) {
			eng := engineOf(b, kind)
			cfg := Config{Threshold: 10, Tie: SmallestIDTie}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SegmentContext(context.Background(), im, cfg, core.Run{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
