package regiongrow

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// BenchmarkSegmentStream measures the streaming engine end to end on a
// paper image: header parse, banded split with frontier stitching, the
// global merge, and the recolour emission that replays the graph's slots
// band by band. Compare against the image6 rows of
// BenchmarkNativeVsSequential to see what bounded memory costs on an
// image that fits in memory; the gate in CI holds the overhead from
// creeping.
func BenchmarkSegmentStream(b *testing.B) {
	im := GeneratePaperImage(Image6Tool256)
	var pgm bytes.Buffer
	if err := WritePGM(&pgm, im); err != nil {
		b.Fatal(err)
	}
	data := pgm.Bytes()
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	b.SetBytes(int64(im.W * im.H))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SegmentStream(context.Background(), bytes.NewReader(data), io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
