// Commscheme: compare the paper's two irregular communication schemes on
// the CM-5 message-passing implementation — synchronous Linear
// Permutation (LP) against asynchronous direct sends — across all six
// evaluation images (the paper's claim C2: "Asynchronous communication on
// the CM-5 is faster than Linear Permutation").
package main

import (
	"fmt"
	"log"

	"regiongrow"
)

func main() {
	lpEng, err := regiongrow.NewEngine(regiongrow.CM5LinearPermutation)
	if err != nil {
		log.Fatal(err)
	}
	asEng, err := regiongrow.NewEngine(regiongrow.CM5Async)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-50s %10s %10s %8s %10s %10s\n",
		"image", "LP merge", "Async", "speedup", "LP steps", "messages")
	var totLP, totAsync float64
	for _, id := range regiongrow.AllPaperImageIDs() {
		im := regiongrow.GeneratePaperImage(id)
		cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: 2}

		lp, err := lpEng.Segment(im, cfg)
		if err != nil {
			log.Fatal(err)
		}
		as, err := asEng.Segment(im, cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Same seed ⇒ same node program behaviour; only the exchange
		// scheme differs, so the segmentations are identical.
		if !lp.EqualLabels(as) {
			log.Fatal("schemes disagree on the segmentation")
		}
		fmt.Printf("%-50s %9.3fs %9.3fs %7.2fx %10d %10d\n",
			id, lp.MergeSim, as.MergeSim, lp.MergeSim/as.MergeSim,
			lp.Comm.LPSteps, as.Comm.Messages)
		totLP += lp.MergeSim
		totAsync += as.MergeSim
	}
	fmt.Printf("%-50s %9.3fs %9.3fs %7.2fx\n", "total", totLP, totAsync, totLP/totAsync)

	fmt.Println()
	fmt.Println("LP pays Q−1 ring steps per exchange whether or not a node has")
	fmt.Println("data to send — with 32 nodes that is 31 mandatory steps — while")
	fmt.Println("the async scheme sends only the messages that exist. The paper")
	fmt.Println("observed the same ordering on the real CM-5.")
}
