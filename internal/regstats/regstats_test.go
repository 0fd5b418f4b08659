package regstats

import (
	"strings"
	"testing"

	"regiongrow/internal/pixmap"
)

// twoRegionFixture: 4×2 image, left half label 0 (value 10), right half
// label 2 (value 200).
func twoRegionFixture() (*pixmap.Image, []int32) {
	im := pixmap.New(4, 2)
	copy(im.Pix, []uint8{10, 10, 200, 200, 10, 10, 200, 200})
	return im, []int32{0, 0, 2, 2, 0, 0, 2, 2}
}

func TestComputeBasics(t *testing.T) {
	im, labels := twoRegionFixture()
	rs := Compute(im, labels)
	if len(rs) != 2 {
		t.Fatalf("regions = %d", len(rs))
	}
	r0 := rs[0]
	if r0.ID != 0 || r0.Area != 4 {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.BBox != [4]int{0, 0, 2, 2} {
		t.Fatalf("bbox = %v", r0.BBox)
	}
	if r0.CentroidX != 0.5 || r0.CentroidY != 0.5 {
		t.Fatalf("centroid = (%v,%v)", r0.CentroidX, r0.CentroidY)
	}
	if r0.Mean != 10 || r0.Lo != 10 || r0.Hi != 10 {
		t.Fatalf("intensity stats = %+v", r0)
	}
	// Perimeter: left/top/bottom borders (2+2+2) plus the internal
	// boundary (2 edges) = 8.
	if r0.Perimeter != 8 {
		t.Fatalf("perimeter = %d", r0.Perimeter)
	}
	if len(r0.Neighbors) != 1 || r0.Neighbors[0] != 2 {
		t.Fatalf("neighbors = %v", r0.Neighbors)
	}
	if rs[1].Neighbors[0] != 0 {
		t.Fatal("adjacency not symmetric")
	}
}

func TestComputeAreasCover(t *testing.T) {
	im := pixmap.Random(16, 3)
	labels := make([]int32, 256)
	rs := Compute(im, labels) // all zero: a single region
	if len(rs) != 1 || rs[0].Area != 256 {
		t.Fatalf("single region stats wrong: %+v", rs)
	}
	// Border-only perimeter: 4×16.
	if rs[0].Perimeter != 64 {
		t.Fatalf("perimeter = %d", rs[0].Perimeter)
	}
}

// TestRowSum checks the word-at-a-time sum against a plain loop at every
// length and alignment up to 40 pixels, on bright pixels that would carry
// across lanes if a lane were too narrow.
func TestRowSum(t *testing.T) {
	row := make([]uint8, 48)
	for i := range row {
		row[i] = uint8(255 - i%7)
	}
	for lo := 0; lo < 8; lo++ {
		for n := 0; n <= 40; n++ {
			want := int64(0)
			for _, v := range row[lo : lo+n] {
				want += int64(v)
			}
			if got := rowSum(row[lo : lo+n]); got != want {
				t.Fatalf("rowSum(row[%d:%d]) = %d, want %d", lo, lo+n, got, want)
			}
		}
	}
}

func TestComputePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched labels accepted")
		}
	}()
	Compute(pixmap.New(2, 2), []int32{0})
}

func TestWriteJSON(t *testing.T) {
	im, labels := twoRegionFixture()
	var sb strings.Builder
	if err := WriteJSON(&sb, Compute(im, labels)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"id": 0`, `"area": 4`, `"neighbors"`, `"perimeter": 8`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	im, labels := twoRegionFixture()
	var sb strings.Builder
	if err := WriteDOT(&sb, Compute(im, labels)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph rag {", "r0 [label=", "r0 -- r2;", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "r2 -- r0") {
		t.Error("edge emitted twice")
	}
}

func TestSummarize(t *testing.T) {
	im, labels := twoRegionFixture()
	s := Summarize(Compute(im, labels))
	if s.Regions != 2 || s.LargestArea != 4 || s.SmallestArea != 4 || s.MeanArea != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.TotalEdges != 1 {
		t.Fatalf("edges = %d", s.TotalEdges)
	}
	if Summarize(nil).Regions != 0 {
		t.Fatal("empty summary wrong")
	}
}
