// Quickstart: segment one of the paper's images with the default
// (sequential) engine and print what the algorithm found.
package main

import (
	"context"
	"fmt"
	"log"

	"regiongrow"
)

func main() {
	// A 128×128 scene of ten circles on a dark background.
	im := regiongrow.GeneratePaperImage(regiongrow.Image3Circles128)

	// Pixel-range homogeneity threshold T=10, random tie-breaking as the
	// paper recommends, fixed seed for a reproducible run.
	cfg := regiongrow.Config{
		Threshold: 10,
		Tie:       regiongrow.RandomTie,
		Seed:      1,
	}
	s, err := regiongrow.New(regiongrow.SequentialEngine)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := s.Segment(context.Background(), im, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("image:  %dx%d pixels\n", im.W, im.H)
	fmt.Printf("split:  %d iterations -> %d homogeneous squares\n",
		seg.SplitIterations, seg.SquaresAfterSplit)
	fmt.Printf("merge:  %d iterations -> %d regions\n",
		seg.MergeIterations, seg.FinalRegions)

	fmt.Println("regions (id = linear index of the region's first pixel):")
	for _, r := range seg.Regions {
		x, y := im.Coord(int(r.ID))
		fmt.Printf("  region %6d at (%3d,%3d): %6d px, intensity %v\n",
			r.ID, x, y, r.Area, r.IV)
	}

	// Every engine run can be checked against the algorithm's
	// postconditions: homogeneous connected regions, none still mergeable.
	if err := regiongrow.Validate(seg, im, cfg); err != nil {
		log.Fatalf("validation failed: %v", err)
	}
	fmt.Println("validation: ok")
}
