package regiongrow_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"regiongrow"
)

// The redesigned flow: construct a reusable Segmenter session, then run
// it with a context. The session pools its scratch buffers, so calling it
// repeatedly on same-size images is the efficient serving pattern.
func ExampleSegmenter() {
	s, err := regiongrow.New(regiongrow.NativeParallel)
	if err != nil {
		log.Fatal(err)
	}
	im := regiongrow.GeneratePaperImage(regiongrow.Image3Circles128)
	seg, err := s.Segment(context.Background(), im, regiongrow.Config{
		Threshold: 10,
		Tie:       regiongrow.RandomTie,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("final regions:", seg.FinalRegions)
	// Output:
	// final regions: 11
}

// Cancellation is cooperative and prompt: every engine checks the context
// at split-pass and merge-round boundaries. Here an observer cancels the
// run as soon as the split stage finishes, so the merge never starts and
// the call returns ctx.Err().
func ExampleSegmenter_cancellation() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := regiongrow.New(regiongrow.SequentialEngine,
		regiongrow.WithObserver(regiongrow.ObserverFunc(func(ev regiongrow.StageEvent) {
			if ev.Kind == regiongrow.EventSplitDone {
				cancel()
			}
		})))
	if err != nil {
		log.Fatal(err)
	}
	im := regiongrow.GeneratePaperImage(regiongrow.Image2Rects128)
	_, err = s.Segment(ctx, im, regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1})
	fmt.Println("cancelled:", errors.Is(err, context.Canceled))
	// Output:
	// cancelled: true
}

// A session observer streams typed stage events.
func ExampleSegmenter_observer() {
	var iterations int
	obs := regiongrow.ObserverFunc(func(ev regiongrow.StageEvent) {
		if ev.Kind == regiongrow.EventMergeIteration {
			iterations++
		}
	})
	s, err := regiongrow.New(regiongrow.SequentialEngine, regiongrow.WithObserver(obs))
	if err != nil {
		log.Fatal(err)
	}
	im := regiongrow.GeneratePaperImage(regiongrow.Image1NestedRects128)
	seg, err := s.Segment(context.Background(), im, regiongrow.Config{Threshold: 10, Tie: regiongrow.SmallestIDTie})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("observed == reported:", iterations == seg.MergeIterations)
	// Output:
	// observed == reported: true
}

// The basic flow: generate an evaluation image, segment it with the
// sequential engine, inspect the result.
func ExampleSegmenter_Segment() {
	s, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		log.Fatal(err)
	}
	im := regiongrow.GeneratePaperImage(regiongrow.Image2Rects128)
	seg, err := s.Segment(context.Background(), im, regiongrow.Config{
		Threshold: 10,
		Tie:       regiongrow.RandomTie,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("split iterations:", seg.SplitIterations)
	fmt.Println("final regions:", seg.FinalRegions)
	// Output:
	// split iterations: 4
	// final regions: 7
}

// Simulated machine engines report the stage times the paper's tables
// measure; the segmentation itself is identical across engines.
func ExampleNew() {
	ctx := context.Background()
	im := regiongrow.GeneratePaperImage(regiongrow.Image2Rects128)
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.SmallestIDTie}

	seq, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := seq.Segment(ctx, im, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cm5, err := regiongrow.New(regiongrow.CM5Async)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := cm5.Segment(ctx, im, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same labels:", ref.EqualLabels(seg))
	fmt.Println("simulated merge time > 0:", seg.MergeSim > 0)
	// Output:
	// same labels: true
	// simulated merge time > 0: true
}

// Region statistics derive areas, centroids, perimeters, and the final
// adjacency graph from any segmentation.
func ExampleComputeRegionStats() {
	s, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		log.Fatal(err)
	}
	im := regiongrow.GeneratePaperImage(regiongrow.Image1NestedRects128)
	seg, err := s.Segment(context.Background(), im, regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	stats := regiongrow.ComputeRegionStats(seg, im)
	sum := regiongrow.SummarizeRegions(stats)
	fmt.Println("regions:", sum.Regions)
	fmt.Println("adjacencies:", sum.TotalEdges)
	// Output:
	// regions: 2
	// adjacencies: 1
}

// Validate checks the algorithm's postconditions on any segmentation.
func ExampleValidate() {
	s, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		log.Fatal(err)
	}
	im := regiongrow.GeneratePaperImage(regiongrow.Image6Tool256)
	cfg := regiongrow.DefaultConfig()
	seg, err := s.Segment(context.Background(), im, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("valid:", regiongrow.Validate(seg, im, cfg) == nil)
	// Output:
	// valid: true
}
