package distengine_test

import (
	"fmt"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/distengine/disttest"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
	"regiongrow/internal/transport"
)

// randomGeometry draws an image shape from one of four families: a single
// column (1×N), a single row (N×1), odd sides, and arbitrary
// non-power-of-two sides.
func randomGeometry(g *prand.Gen, family int) (w, h int) {
	switch family % 4 {
	case 0:
		return 1, 1 + g.Intn(48)
	case 1:
		return 1 + g.Intn(48), 1
	case 2:
		return 3 + 2*g.Intn(20), 3 + 2*g.Intn(20)
	default:
		return 2 + g.Intn(47), 2 + g.Intn(47)
	}
}

// randomField fills a w×h image with one of three adversarial intensity
// fields, built around the threshold: plateaus whose levels differ by
// threshold−1, threshold or threshold+1; a ramp of that slope; or
// low-amplitude noise that leaves many equal-weight ties.
func randomField(g *prand.Gen, w, h, threshold int) (*pixmap.Image, string) {
	im := pixmap.New(w, h)
	step := max(threshold-1+g.Intn(3), 0)
	switch g.Intn(3) {
	case 0:
		bw, bh := 1+g.Intn(8), 1+g.Intn(8)
		levels := make(map[[2]int]int)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				k := [2]int{x / bw, y / bh}
				if _, ok := levels[k]; !ok {
					levels[k] = g.Intn(6)
				}
				im.Pix[y*w+x] = uint8(levels[k] * step)
			}
		}
		return im, fmt.Sprintf("plateau %dx%d step %d", bw, bh, step)
	case 1:
		k := g.Intn(3)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				im.Pix[y*w+x] = uint8((x + k*y) * step)
			}
		}
		return im, fmt.Sprintf("ramp k=%d step %d", k, step)
	default:
		for i := range im.Pix {
			im.Pix[i] = uint8(g.Intn(2*threshold + 2))
		}
		return im, "noise"
	}
}

// TestRandomGeometryMatchesSequential: over the in-process transport, the
// distributed engine matches the sequential engine byte for byte — and
// passes core.Validate — on random shapes and adversarial fields, under
// every tie policy, split cap and worker count 1–5. Unlike the paper
// images, these inputs give bands of uneven height, single-row bands and
// more workers than cap-rows.
func TestRandomGeometryMatchesSequential(t *testing.T) {
	mem := transport.NewMem()
	addrs := disttest.StartClusterOver(t, mem, 5)
	trials := 96
	if testing.Short() {
		trials = 24
	}
	caps := []int{0, 1, 2, 4, 8, quadsplit.Unbounded}
	g := prand.New(20261016)
	for trial := 0; trial < trials; trial++ {
		w, h := randomGeometry(g, trial)
		threshold := g.Intn(13)
		im, field := randomField(g, w, h, threshold)
		for _, tie := range rag.AllTiePolicies() {
			cfg := core.Config{Threshold: threshold, Tie: tie, Seed: g.Uint64(), MaxSquare: caps[g.Intn(len(caps))]}
			workers := 1 + g.Intn(len(addrs))
			name := fmt.Sprintf("trial %d: %dx%d %s, %d workers, %+v", trial, w, h, field, workers, cfg)
			want, err := core.Sequential{}.Segment(im, cfg)
			if err != nil {
				t.Fatalf("%s: sequential: %v", name, err)
			}
			got, err := distengine.NewOver(mem, addrs[:workers]).Segment(im, cfg)
			if err != nil {
				t.Fatalf("%s: dist: %v", name, err)
			}
			if !got.EqualLabels(want) {
				t.Errorf("%s: labels differ from sequential", name)
			}
			if got.SplitIterations != want.SplitIterations ||
				got.SquaresAfterSplit != want.SquaresAfterSplit ||
				got.MergeIterations != want.MergeIterations ||
				got.FinalRegions != want.FinalRegions {
				t.Errorf("%s: stats diverge: split %d/%d squares %d/%d merge %d/%d regions %d/%d", name,
					got.SplitIterations, want.SplitIterations,
					got.SquaresAfterSplit, want.SquaresAfterSplit,
					got.MergeIterations, want.MergeIterations,
					got.FinalRegions, want.FinalRegions)
			}
			if err := core.Validate(got, im, cfg.Criterion()); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
