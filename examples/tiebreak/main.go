// Tiebreak: reproduce the paper's key algorithmic observation — breaking
// merge ties at random instead of by smallest/largest region ID removes
// the serialization of merges and cuts merge iterations by an order of
// magnitude ("Resolving Ties at Random").
package main

import (
	"context"
	"fmt"
	"log"

	"regiongrow"
)

func main() {
	ctx := context.Background()
	seq, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		log.Fatal(err)
	}
	policies := []struct {
		name string
		tie  regiongrow.TiePolicy
	}{
		{"smallest-id", regiongrow.SmallestIDTie},
		{"largest-id", regiongrow.LargestIDTie},
		{"random", regiongrow.RandomTie},
	}

	fmt.Printf("%-50s %-12s %12s %12s %12s\n",
		"image", "tie policy", "merge iters", "merges/iter", "regions")
	for _, id := range regiongrow.AllPaperImageIDs() {
		im := regiongrow.GeneratePaperImage(id)
		for _, p := range policies {
			cfg := regiongrow.Config{Threshold: 10, Tie: p.tie, Seed: 1}
			seg, err := seq.Segment(ctx, im, cfg)
			if err != nil {
				log.Fatal(err)
			}
			mpi := 0.0
			if seg.MergeIterations > 0 {
				mpi = float64(seg.SquaresAfterSplit-seg.FinalRegions) / float64(seg.MergeIterations)
			}
			fmt.Printf("%-50s %-12s %12d %12.2f %12d\n",
				id, p.name, seg.MergeIterations, mpi, seg.FinalRegions)
		}
	}

	fmt.Println()
	fmt.Println("The ID-based policies force long merge chains (a region column")
	fmt.Println("merges one neighbour per iteration); the random policy pairs")
	fmt.Println("regions all over the image simultaneously, which is why the")
	fmt.Println("paper adopted it on the Connection Machine.")

	// The distribution of merges per iteration tells the same story.
	im := regiongrow.GeneratePaperImage(regiongrow.Image1NestedRects128)
	for _, p := range []regiongrow.TiePolicy{regiongrow.SmallestIDTie, regiongrow.RandomTie} {
		seg, err := seq.Segment(ctx, im, regiongrow.Config{Threshold: 10, Tie: p, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nimage 1, %v: merges per iteration (first 20):\n  ", p)
		for i, m := range seg.MergesPerIter {
			if i == 20 {
				fmt.Print("…")
				break
			}
			fmt.Printf("%d ", m)
		}
		fmt.Println()
	}
}
