package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// fillRegionsPerPixel is the reference region summary: one map update per
// pixel, regions in ascending ID order, nil when there are none.
func fillRegionsPerPixel(labels []int32, im *pixmap.Image) []RegionInfo {
	info := make(map[int32]*RegionInfo)
	for i, lab := range labels {
		ri, ok := info[lab]
		if !ok {
			ri = &RegionInfo{ID: lab, IV: homog.Empty()}
			info[lab] = ri
		}
		ri.Area++
		ri.IV = ri.IV.Union(homog.Point(im.Pix[i]))
	}
	var out []RegionInfo
	for _, ri := range info {
		out = append(out, *ri)
	}
	slices.SortFunc(out, func(a, b RegionInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// TestFillRegions: the run walk gives the per-pixel summary on a hand-made
// case and on random rasters up to 8×8 over four labels, where a label
// may recur in places that do not touch.
func TestFillRegions(t *testing.T) {
	im := pixmap.New(2, 2)
	copy(im.Pix, []uint8{1, 1, 9, 9})
	seg := &Segmentation{W: 2, H: 2, Labels: []int32{0, 0, 2, 2}}
	seg.FillRegions(im)
	if seg.FinalRegions != 2 || len(seg.Regions) != 2 {
		t.Fatalf("regions = %d", seg.FinalRegions)
	}
	if seg.Regions[0].ID != 0 || seg.Regions[0].Area != 2 || seg.Regions[0].IV.Hi != 1 {
		t.Fatalf("region 0 = %+v", seg.Regions[0])
	}
	if seg.Regions[1].ID != 2 || seg.Regions[1].IV.Lo != 9 {
		t.Fatalf("region 1 = %+v", seg.Regions[1])
	}

	r := prand.New(3)
	for n := 0; n < 2000; n++ {
		w, h := r.Intn(9), r.Intn(9)
		im := pixmap.New(w, h)
		seg := &Segmentation{W: w, H: h, Labels: make([]int32, w*h)}
		for i := range seg.Labels {
			seg.Labels[i] = int32(r.Intn(4) * 5)
			im.Pix[i] = uint8(r.Uint64())
		}
		seg.FillRegions(im)
		want := fillRegionsPerPixel(seg.Labels, im)
		if !reflect.DeepEqual(seg.Regions, want) || seg.FinalRegions != len(want) {
			t.Fatalf("%dx%d labels %v: regions %+v (%d), per pixel %+v", w, h, seg.Labels, seg.Regions, seg.FinalRegions, want)
		}
	}
}

// finalizeImages returns generated noise, ramp and speckled-plateau
// images, square and not, with few enough grey levels that merging runs
// several rounds.
func finalizeImages() map[string]*pixmap.Image {
	r := prand.New(29)
	out := map[string]*pixmap.Image{}
	for _, d := range [][2]int{{40, 40}, {67, 29}} {
		w, h := d[0], d[1]
		noise, ramp, plateau := pixmap.New(w, h), pixmap.New(w, h), pixmap.New(w, h)
		plateau.FillRect(0, 0, w, h, 40)
		plateau.FillRect(w/5, h/4, w-w/3, h-2, 140)
		for i := range noise.Pix {
			x, y := i%w, i/w
			noise.Pix[i] = uint8(r.Intn(4) * 5)
			ramp.Pix[i] = uint8((3*x+2*y)/2 + r.Intn(2))
			if r.Intn(15) == 0 {
				plateau.Pix[i] += uint8(r.Intn(12))
			}
		}
		out[fmt.Sprintf("noise%dx%d", w, h)] = noise
		out[fmt.Sprintf("ramp%dx%d", w, h)] = ramp
		out[fmt.Sprintf("plateau%dx%d", w, h)] = plateau
	}
	return out
}

// TestFinalizeFromArena pins the host pipeline's finalize, which reads the
// region list off the merged graph: on every host engine, Regions equals
// FillRegions recomputed from the labels (nil when there are none), and
// FinalRegions counts it. The inputs are the 18 paper cells; generated
// images under square caps 0, 1, 8 and unbounded; strips one pixel wide
// and one high; and the empty 0×0 and 0×9 images.
func TestFinalizeFromArena(t *testing.T) {
	engines := []Engine{Sequential{}, Native{Workers: 1}, Native{Workers: 2}, Native{Workers: 3}, SerialBaseline{}}
	type input struct {
		name string
		im   *pixmap.Image
		cfg  Config
	}
	var inputs []input
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		for _, tie := range rag.AllTiePolicies() {
			inputs = append(inputs, input{fmt.Sprintf("%v/%v", id, tie), im, Config{Threshold: 10, Tie: tie, Seed: 1}})
		}
	}
	gen := finalizeImages()
	for name, im := range gen {
		for i, maxSquare := range []int{0, 1, 8, quadsplit.Unbounded} {
			tie := rag.AllTiePolicies()[i%3]
			inputs = append(inputs, input{fmt.Sprintf("%s/cap=%d", name, maxSquare), im, Config{Threshold: 10, Tie: tie, Seed: 3, MaxSquare: maxSquare}})
		}
	}
	strip, bar := pixmap.New(1, 37), pixmap.New(37, 1)
	for i := range strip.Pix {
		strip.Pix[i] = uint8(i * 7 % 40)
		bar.Pix[i] = strip.Pix[i]
	}
	for name, im := range map[string]*pixmap.Image{"1x37": strip, "37x1": bar, "0x0": pixmap.New(0, 0), "0x9": pixmap.New(0, 9)} {
		inputs = append(inputs, input{name, im, Config{Threshold: 10, Tie: rag.Random, Seed: 2}})
	}

	for _, in := range inputs {
		for _, eng := range engines {
			label := fmt.Sprintf("%s/%+v", in.name, eng)
			seg, err := runEngine(eng, in.im, in.cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ref := &Segmentation{W: seg.W, H: seg.H, Labels: seg.Labels}
			ref.FillRegions(in.im)
			if !reflect.DeepEqual(seg.Regions, ref.Regions) {
				t.Fatalf("%s: regions %+v, FillRegions %+v", label, seg.Regions, ref.Regions)
			}
			if seg.FinalRegions != len(seg.Regions) {
				t.Fatalf("%s: FinalRegions %d for %d regions", label, seg.FinalRegions, len(seg.Regions))
			}
		}
	}
}
