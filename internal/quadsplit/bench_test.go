package quadsplit

import (
	"context"
	"testing"

	"regiongrow/internal/pixmap"
)

// BenchmarkSplit times Split alone, with a reused Scratch, at T = 10 and
// in MB/s of pixels. The stream cases split a 4096² image as a streamed
// segmentation does: 4096×512 bands in turn, each at the image's cap of
// 512, one worker. The stream-16mp benchmark workload streams the same
// two images, the circles dithered by ±4 (many small squares) and the
// clean tool (few large ones). circles-1024/workers-2 splits the 1024²
// circles whole at the default cap on 2 workers, as the large-native
// workload's native engine does on a 2-vCPU host.
func BenchmarkSplit(b *testing.B) {
	noisy := pixmap.GenOptions{Noise: 4, Seed: 1}
	for _, c := range []struct {
		name          string
		image         func() *pixmap.Image
		bandRows, cap int
		workers       int
	}{
		{"stream-circles-4096", func() *pixmap.Image { return pixmap.CircleCollection(4096, noisy) }, 512, 512, 1},
		{"stream-tool-4096", func() *pixmap.Image { return pixmap.Tool(4096, pixmap.GenOptions{}) }, 512, 512, 1},
		{"circles-1024/workers-2", func() *pixmap.Image { return pixmap.CircleCollection(1024, noisy) }, 1024, 0, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			im := c.image()
			var bands []*pixmap.Image
			for y0 := 0; y0 < im.H; y0 += c.bandRows {
				y1 := min(y0+c.bandRows, im.H)
				bands = append(bands, &pixmap.Image{W: im.W, H: y1 - y0, Pix: im.Pix[y0*im.W : y1*im.W]})
			}
			opt := Options{MaxSquare: c.cap, Workers: c.workers, Scratch: new(Scratch)}
			b.SetBytes(int64(len(im.Pix)))
			b.ReportAllocs()
			for b.Loop() {
				for _, band := range bands {
					if _, err := Split(context.Background(), band, 10, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
