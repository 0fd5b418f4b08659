package regiongrow

import (
	"testing"

	"regiongrow/internal/pixmap"
)

// recolourMap is the pre-dense-table implementation Recolour shipped
// with: a per-pixel map lookup keyed by region ID. Kept as the benchmark
// baseline so the win of the flat shade table stays measured.
func recolourMap(seg *Segmentation, im *Image) *Image {
	shade := make(map[int32]uint8, len(seg.Regions))
	for _, r := range seg.Regions {
		shade[r.ID] = uint8((int(r.IV.Lo) + int(r.IV.Hi)) / 2)
	}
	out := pixmap.New(im.W, im.H)
	for i, lab := range seg.Labels {
		out.Pix[i] = shade[lab]
	}
	return out
}

func recolourFixture(b *testing.B) (*Segmentation, *Image) {
	b.Helper()
	im := GeneratePaperImage(Image6Tool256)
	seg, err := segmentKind(SequentialEngine, im, Config{Threshold: 10, Tie: RandomTie, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return seg, im
}

// BenchmarkRecolour measures the dense-table Recolour on image6 (256×256,
// the busiest paper image). Compare with BenchmarkRecolourMap to see what
// replacing the per-pixel map lookup bought.
func BenchmarkRecolour(b *testing.B) {
	seg, im := recolourFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Recolour(seg, im)
		if out.Pix[0] == 1 && out.Pix[1] == 2 {
			b.Fatal("unreachable, defeats dead-code elimination")
		}
	}
}

// BenchmarkRecolourMap is the old map-based implementation, kept for
// comparison.
func BenchmarkRecolourMap(b *testing.B) {
	seg, im := recolourFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := recolourMap(seg, im)
		if out.Pix[0] == 1 && out.Pix[1] == 2 {
			b.Fatal("unreachable, defeats dead-code elimination")
		}
	}
}

// TestRecolourMatchesMapBaseline pins the dense-table implementation to
// the map baseline pixel for pixel, on every paper image.
func TestRecolourMatchesMapBaseline(t *testing.T) {
	for _, id := range AllPaperImageIDs() {
		im := GeneratePaperImage(id)
		seg, err := segmentKind(SequentialEngine, im, Config{Threshold: 10, Tie: RandomTie, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, want := Recolour(seg, im), recolourMap(seg, im)
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%v: pixel %d differs: %d vs %d", id, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}
