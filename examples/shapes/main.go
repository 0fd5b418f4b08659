// Shapes: run the full evaluation workload — all six paper images on all
// five simulated machine configurations — and render each segmentation as
// ASCII art so the region structure is visible in a terminal.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"regiongrow"
)

func main() {
	for _, id := range regiongrow.AllPaperImageIDs() {
		exp, err := regiongrow.RunExperiment(context.Background(), id, regiongrow.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		regiongrow.WriteTable(os.Stdout, exp)
		fmt.Println()

		im := regiongrow.GeneratePaperImage(id)
		seg, err := regiongrow.Segment(im, regiongrow.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		render(seg, im)
		fmt.Println()
	}
}

// render draws the segmentation downsampled to a 32×32 character grid,
// one letter per region (by size rank; '.' is the largest region).
func render(seg *regiongrow.Segmentation, im *regiongrow.Image) {
	glyphs := []byte(".#oxABCDEFGHIJKLMNOPQRSTUVWXYZ*+%@")
	// Rank regions by area so the background gets '.'.
	rank := make(map[int32]int, len(seg.Regions))
	order := append([]regiongrow.Segmentation{}, *seg)[0].Regions
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].Area > order[i].Area {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for i, r := range order {
		rank[r.ID] = i
	}
	const cells = 32
	sy, sx := im.H/cells, im.W/cells
	for cy := 0; cy < cells; cy++ {
		line := make([]byte, cells)
		for cx := 0; cx < cells; cx++ {
			lab := seg.Labels[(cy*sy+sy/2)*im.W+cx*sx+sx/2]
			line[cx] = glyphs[rank[lab]%len(glyphs)]
		}
		fmt.Printf("    %s\n", line)
	}
}
