package regstats

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// computePerPixel is the reference: five map updates per pixel and a
// neighbour-set insert per boundary edge, regions in ascending ID order.
func computePerPixel(im *pixmap.Image, labels []int32) []Region {
	acc := make(map[int32]*Region)
	sumX := make(map[int32]int64)
	sumY := make(map[int32]int64)
	sumV := make(map[int32]int64)
	nbr := make(map[int32]map[int32]struct{})

	get := func(lab int32, x, y int) *Region {
		r, ok := acc[lab]
		if !ok {
			r = &Region{ID: lab, BBox: [4]int{x, y, x + 1, y + 1}, Lo: 255, Hi: 0}
			acc[lab] = r
			nbr[lab] = make(map[int32]struct{})
		}
		return r
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			i := y*im.W + x
			lab := labels[i]
			r := get(lab, x, y)
			r.Area++
			v := im.Pix[i]
			r.Lo, r.Hi = min(r.Lo, v), max(r.Hi, v)
			r.BBox[0], r.BBox[1] = min(r.BBox[0], x), min(r.BBox[1], y)
			r.BBox[2], r.BBox[3] = max(r.BBox[2], x+1), max(r.BBox[3], y+1)
			sumX[lab] += int64(x)
			sumY[lab] += int64(y)
			sumV[lab] += int64(v)
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if !im.In(nx, ny) {
					r.Perimeter++
					continue
				}
				if nl := labels[ny*im.W+nx]; nl != lab {
					r.Perimeter++
					nbr[lab][nl] = struct{}{}
				}
			}
		}
	}
	out := make([]Region, 0, len(acc))
	for lab, r := range acc {
		r.CentroidX = float64(sumX[lab]) / float64(r.Area)
		r.CentroidY = float64(sumY[lab]) / float64(r.Area)
		r.Mean = float64(sumV[lab]) / float64(r.Area)
		ns := make([]int32, 0, len(nbr[lab]))
		for n := range nbr[lab] {
			ns = append(ns, n)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		r.Neighbors = ns
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// checkAgainstPerPixel fails t unless Compute marshals to the same JSON as
// the reference, which also tells an empty slice from a nil one.
func checkAgainstPerPixel(t *testing.T, name string, im *pixmap.Image, labels []int32) {
	t.Helper()
	got, err := json.Marshal(Compute(im, labels))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(computePerPixel(im, labels))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %dx%d labels %v\n got %s\nwant %s", name, im.W, im.H, labels, got, want)
	}
}

// FuzzCompute: on any label raster up to 8×8, including empty ones,
// negative labels and labels that recur in places that do not touch, the
// run walk gives the per-pixel reference's JSON byte for byte. Labels are
// read as int32s from data and pixels from pix, both cycled to fill the
// raster.
func FuzzCompute(f *testing.F) {
	f.Add(uint8(4), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0}, []byte{10, 200})
	f.Add(uint8(3), uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, []byte{1, 2, 3, 4, 5})
	f.Add(uint8(0), uint8(5), []byte{}, []byte{})
	f.Add(uint8(1), uint8(8), []byte{7, 0, 0, 0, 0, 0, 0, 0x80}, []byte{9})
	f.Fuzz(func(t *testing.T, w, h uint8, data, pix []byte) {
		im := pixmap.New(int(w%9), int(h%9))
		labels := make([]int32, im.W*im.H)
		for i := range labels {
			if n := len(data) / 4; n > 0 {
				k := 4 * (i % n)
				labels[i] = int32(uint32(data[k]) | uint32(data[k+1])<<8 | uint32(data[k+2])<<16 | uint32(data[k+3])<<24)
			}
			if len(pix) > 0 {
				im.Pix[i] = pix[i%len(pix)]
			}
		}
		checkAgainstPerPixel(t, "fuzz", im, labels)
	})
}

// TestComputeMatchesPerPixel compares the run walk with the reference on
// real segmentations: the 18 paper cells on the sequential engine, and
// generated noise and ramp images under square caps 0, 1, 8 and
// unbounded.
func TestComputeMatchesPerPixel(t *testing.T) {
	segment := func(name string, im *pixmap.Image, cfg core.Config) {
		seg, err := core.Sequential{}.SegmentContext(context.Background(), im, cfg, core.Run{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstPerPixel(t, name, im, seg.Labels)
	}
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		for _, tie := range rag.AllTiePolicies() {
			segment(fmt.Sprintf("%v/%v", id, tie), im, core.Config{Threshold: 10, Tie: tie, Seed: 1})
		}
	}
	r := prand.New(31)
	for _, d := range [][2]int{{40, 40}, {67, 29}} {
		w, h := d[0], d[1]
		noise, ramp := pixmap.New(w, h), pixmap.New(w, h)
		for i := range noise.Pix {
			x, y := i%w, i/w
			noise.Pix[i] = uint8(r.Intn(4) * 5)
			ramp.Pix[i] = uint8((3*x+2*y)/2 + r.Intn(2))
		}
		for i, maxSquare := range []int{0, 1, 8, quadsplit.Unbounded} {
			cfg := core.Config{Threshold: 10, Tie: rag.AllTiePolicies()[i%3], Seed: 3, MaxSquare: maxSquare}
			segment(fmt.Sprintf("noise%dx%d/cap=%d", w, h, maxSquare), noise, cfg)
			segment(fmt.Sprintf("ramp%dx%d/cap=%d", w, h, maxSquare), ramp, cfg)
		}
	}
}

// BenchmarkCompute times the statistics of the six paper images'
// segmentations under random ties.
func BenchmarkCompute(b *testing.B) {
	type input struct {
		im     *pixmap.Image
		labels []int32
	}
	var inputs []input
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		seg, err := core.Sequential{}.SegmentContext(context.Background(), im, core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}, core.Run{})
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{im, seg.Labels})
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		in := inputs[i%len(inputs)]
		Compute(in.im, in.labels)
	}
}
