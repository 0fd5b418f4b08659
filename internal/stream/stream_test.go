package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// sequentialLabels runs the in-memory reference engine.
func sequentialSeg(t *testing.T, im *pixmap.Image, cfg core.Config) *core.Segmentation {
	t.Helper()
	seg, err := core.Sequential{}.SegmentContext(context.Background(), im, cfg, core.Run{})
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// recolourBytes renders the reference recoloured PGM: every region painted
// the midpoint of its interval, exactly the facade's Recolour.
func recolourBytes(t *testing.T, seg *core.Segmentation, im *pixmap.Image) []byte {
	t.Helper()
	shade := make(map[int32]uint8, len(seg.Regions))
	for _, r := range seg.Regions {
		shade[r.ID] = uint8((int(r.IV.Lo) + int(r.IV.Hi)) / 2)
	}
	out := pixmap.New(im.W, im.H)
	for i, lab := range seg.Labels {
		out.Pix[i] = shade[lab]
	}
	var buf bytes.Buffer
	if err := pixmap.WritePGM(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func labelBytes(t *testing.T, seg *core.Segmentation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeLabels(&buf, seg.W, seg.H, seg.Labels); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamMatchesSequential is the byte-identity property test: across
// all six paper images, every tie policy, and band geometries covering one
// band, many bands, a ragged last band, and a request far past the image
// (one band, not a buffer sized by the request), the streamed label
// output and recoloured output are byte-identical to the sequential
// engine's.
func TestStreamMatchesSequential(t *testing.T) {
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		var pgm bytes.Buffer
		if err := pixmap.WritePGM(&pgm, im); err != nil {
			t.Fatal(err)
		}
		cap := quadsplit.EffectiveCap(quadsplit.Options{}, im.W, im.H)
		bandGeometries := map[string]int{
			"one-band":    im.H,    // whole image in a single band
			"many-bands":  0,       // one cap per band
			"ragged-last": 3 * cap, // H is not a multiple of 3 caps
			"past-image":  1 << 40, // one band, limited to the image
		}
		if im.H%(3*cap) == 0 {
			t.Fatalf("%v: 3-cap bands divide H=%d evenly; pick a raggeder geometry", id, im.H)
		}
		for _, tie := range []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random} {
			cfg := core.Config{Threshold: 10, Tie: tie, Seed: 7}
			seg := sequentialSeg(t, im, cfg)
			wantLabels := labelBytes(t, seg)
			wantPGM := recolourBytes(t, seg, im)
			for name, bandRows := range bandGeometries {
				t.Run(fmt.Sprintf("%v/%v/%s", id, tie, name), func(t *testing.T) {
					var gotLabels bytes.Buffer
					res, err := Segment(context.Background(), bytes.NewReader(pgm.Bytes()), &gotLabels,
						cfg, core.Run{}, Options{BandRows: bandRows, Output: OutputLabels})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotLabels.Bytes(), wantLabels) {
						t.Error("streamed labels differ from the sequential engine")
					}
					if res.FinalRegions != seg.FinalRegions {
						t.Errorf("FinalRegions = %d, sequential %d", res.FinalRegions, seg.FinalRegions)
					}
					if res.SquaresAfterSplit != seg.SquaresAfterSplit {
						t.Errorf("SquaresAfterSplit = %d, sequential %d", res.SquaresAfterSplit, seg.SquaresAfterSplit)
					}
					if res.MergeIterations != seg.MergeIterations {
						t.Errorf("MergeIterations = %d, sequential %d", res.MergeIterations, seg.MergeIterations)
					}
					wantBands := (im.H + max(bandRows/cap, 1)*cap - 1) / (max(bandRows/cap, 1) * cap)
					if res.Bands != wantBands {
						t.Errorf("Bands = %d, want %d", res.Bands, wantBands)
					}
					var gotPGM bytes.Buffer
					if _, err := Segment(context.Background(), bytes.NewReader(pgm.Bytes()), &gotPGM,
						cfg, core.Run{}, Options{BandRows: bandRows, Output: OutputRecolour}); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotPGM.Bytes(), wantPGM) {
						t.Error("streamed recoloured PGM differs from the sequential engine")
					}
				})
			}
		}
	}
}

// TestStreamWithoutTempDir: pass 2 replays the graph in memory, so a
// missing temp directory changes nothing; both outputs still match the
// sequential engine's.
func TestStreamWithoutTempDir(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	var pgm bytes.Buffer
	if err := pixmap.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	seg := sequentialSeg(t, im, cfg)
	for _, out := range []struct {
		format Output
		want   []byte
	}{{OutputLabels, labelBytes(t, seg)}, {OutputRecolour, recolourBytes(t, seg, im)}} {
		var got bytes.Buffer
		if _, err := Segment(context.Background(), bytes.NewReader(pgm.Bytes()), &got, cfg, core.Run{},
			Options{Output: out.format}); err != nil {
			t.Fatalf("output %d: %v", out.format, err)
		}
		if !bytes.Equal(got.Bytes(), out.want) {
			t.Errorf("output %d differs from the sequential engine's", out.format)
		}
	}
}

// TestStreamP2Input runs the streaming path on an ASCII PGM: the encoding
// must not affect the segmentation.
func TestStreamP2Input(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	var p2 bytes.Buffer
	if err := pixmap.WritePGMPlain(&p2, im); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	want := labelBytes(t, sequentialSeg(t, im, cfg))
	var got bytes.Buffer
	if _, err := Segment(context.Background(), &p2, &got, cfg, core.Run{}, Options{Output: OutputLabels}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("P2-streamed labels differ from the sequential engine")
	}
}

// TestStreamLargeSynthetic segments a multi-band non-paper image with an
// explicit small cap, crossing many band boundaries.
func TestStreamLargeSynthetic(t *testing.T) {
	im := pixmap.Checkerboard(256, 40, 200)
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 3, MaxSquare: 8}
	var pgm bytes.Buffer
	if err := pixmap.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	want := labelBytes(t, sequentialSeg(t, im, cfg))
	var got bytes.Buffer
	res, err := Segment(context.Background(), &pgm, &got, cfg, core.Run{}, Options{Output: OutputLabels})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bands != 32 {
		t.Fatalf("Bands = %d, want 32 (256 rows / 8-row cap)", res.Bands)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("streamed labels differ from the sequential engine")
	}
}

// TestStreamObserverEvents pins the standard observer contract: the stage
// events arrive in engine order with the engine's totals.
func TestStreamObserverEvents(t *testing.T) {
	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	var pgm bytes.Buffer
	if err := pixmap.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var kinds []core.EventKind
	obs := core.ObserverFunc(func(ev core.StageEvent) {
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	})
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	res, err := Segment(context.Background(), &pgm, &bytes.Buffer{}, cfg, core.Run{Observer: obs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []core.EventKind{core.EventSplitStart, core.EventSplitDone, core.EventGraphDone}
	for i := 0; i < res.MergeIterations; i++ {
		want = append(want, core.EventMergeIteration)
	}
	want = append(want, core.EventMergeDone)
	if len(kinds) != len(want) {
		t.Fatalf("got %d events, want %d (%v)", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

// TestStreamMergeEventsMatchSequential: the streaming engine runs the same
// merge loop as the in-memory reference, so under every tie policy its
// per-round merge events — round numbers and merge counts — equal the
// sequential engine's, even when the image arrives in many bands.
func TestStreamMergeEventsMatchSequential(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	var pgm bytes.Buffer
	if err := pixmap.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	rounds := func(evs *[]core.StageEvent) core.Run {
		return core.Run{Observer: core.ObserverFunc(func(ev core.StageEvent) {
			if ev.Kind == core.EventMergeIteration {
				*evs = append(*evs, ev)
			}
		})}
	}
	for _, tie := range rag.AllTiePolicies() {
		cfg := core.Config{Threshold: 10, Tie: tie, Seed: 9}
		var want, got []core.StageEvent
		if _, err := (core.Sequential{}).SegmentContext(context.Background(), im, cfg, rounds(&want)); err != nil {
			t.Fatal(err)
		}
		res, err := Segment(context.Background(), bytes.NewReader(pgm.Bytes()), &bytes.Buffer{}, cfg, rounds(&got), Options{BandRows: 16})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bands < 2 {
			t.Fatalf("%v: image arrived in %d band(s); the test needs several", tie, res.Bands)
		}
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%v: stream merge events %+v, sequential %+v", tie, got, want)
		}
	}
}

// TestStreamCancellation aborts a run up front: the driver must notice at
// its first band and return the context error without writing output.
func TestStreamCancellation(t *testing.T) {
	im := pixmap.Generate(pixmap.Image4NestedRects256, pixmap.DefaultGenOptions())
	var pgm bytes.Buffer
	if err := pixmap.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	_, err := Segment(ctx, &pgm, &out, core.Config{Threshold: 10}, core.Run{}, Options{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Fatalf("cancelled run wrote %d output bytes", out.Len())
	}
}

// TestStreamEmptyImage pins the degenerate geometry: header out, no rows,
// in both formats.
func TestStreamEmptyImage(t *testing.T) {
	for format, want := range map[Output]string{OutputRecolour: "P5\n0 0\n255\n", OutputLabels: "RGLS\n0 0\n"} {
		var out bytes.Buffer
		res, err := Segment(context.Background(), bytes.NewReader([]byte("P5\n0 0\n255\n")), &out,
			core.Config{Threshold: 10}, core.Run{}, Options{Output: format})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalRegions != 0 || res.Bands != 0 {
			t.Fatalf("empty image produced %+v", res)
		}
		if got := out.String(); got != want {
			t.Fatalf("empty output %q, want %q", got, want)
		}
	}
}

// TestStreamTruncatedInput: a stream shorter than its header declares must
// fail, not fabricate pixels. The second input is a header alone that
// declares a 1,048,576×2 image, whose cap is 131,072 rows: its band must
// be sized by the image's two rows, not by the cap, before the missing
// pixels are found.
func TestStreamTruncatedInput(t *testing.T) {
	for _, in := range []string{"P5\n64 64\n255\nshort", "P5\n1048576 2\n255\n"} {
		_, err := Segment(context.Background(), bytes.NewReader([]byte(in)), &bytes.Buffer{},
			core.Config{Threshold: 10}, core.Run{}, Options{})
		if err == nil {
			t.Fatalf("segmented the truncated stream %q", in)
		}
	}
}

// TestEncodeLabelsGuards pins the helper's geometry check.
func TestEncodeLabelsGuards(t *testing.T) {
	if err := EncodeLabels(&bytes.Buffer{}, 2, 2, make([]int32, 3)); err == nil {
		t.Fatal("encoded a mis-sized label raster")
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestEncodeLabelsAcrossBuffer: label rows that end short of, at and past
// the 64 KiB write buffer's end, and one of several buffers, encode to the
// header and one PutUint32 per label; a failing writer's error comes back.
func TestEncodeLabelsAcrossBuffer(t *testing.T) {
	for _, n := range []int{16383, 16384, 16385, 3*16384 + 5} {
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = int32(i * 2654435761) // negative and positive
		}
		want := fmt.Appendf(nil, "RGLS\n%d 1\n", n)
		for _, lab := range labels {
			want = binary.LittleEndian.AppendUint32(want, uint32(lab))
		}
		var got bytes.Buffer
		if err := EncodeLabels(&got, n, 1, labels); err != nil {
			t.Fatalf("%d labels: %v", n, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%d labels: %d bytes differ from the %d of one PutUint32 per label", n, got.Len(), len(want))
		}
		if err := EncodeLabels(failWriter{}, n, 1, labels); err == nil {
			t.Fatalf("%d labels: no error from a failing writer", n)
		}
	}
}

// BenchmarkEncodeLabels encodes a 4096×4096 label raster, the 16 MP
// stream workload's size, into io.Discard.
func BenchmarkEncodeLabels(b *testing.B) {
	labels := make([]int32, 4096*4096)
	for i := range labels {
		labels[i] = int32(i)
	}
	b.SetBytes(int64(4 * len(labels)))
	for b.Loop() {
		if err := EncodeLabels(io.Discard, 4096, 4096, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// fuzzImage decodes FuzzStreamMatchesSequential's image, w×h. Noise takes
// pixel i from pix[i] over five grey levels three apart (0 past its end);
// plateaus fill the image with pix[0], then draw one rectangle per five
// further bytes (corner, extent, grey level), clipped to the image.
func fuzzImage(w, h int, plateau bool, pix []byte) *pixmap.Image {
	im := pixmap.New(w, h)
	if !plateau {
		for i := range im.Pix {
			if i < len(pix) {
				im.Pix[i] = pix[i] % 5 * 3
			}
		}
		return im
	}
	if len(pix) > 0 {
		im.FillRect(0, 0, w, h, pix[0]%64)
	}
	for r := pix[min(1, len(pix)):]; len(r) >= 5; r = r[5:] {
		x0, y0 := int(r[0])%w, int(r[1])%h
		im.FillRect(x0, y0, x0+1+int(r[2])%w, y0+1+int(r[3])%h, r[4]%64)
	}
	return im
}

// FuzzStreamMatchesSequential is the stream's generative oracle: on any
// W×H image (1–48 each) of noise or plateau pixels, under square caps 0,
// 1, 2, 8 and Unbounded, any threshold 0–20, tie policy and seed, and
// any band height from 0 to H plus the cap, both streamed outputs must be
// byte-equal to the sequential engine's: its labels through
// EncodeLabels, and its recolouring through WritePGM. Odd widths, short
// last bands that re-resolve the cap, and cap 1 all lie in that space;
// the corpus starts from one of each.
func FuzzStreamMatchesSequential(f *testing.F) {
	f.Add(uint8(36), uint8(22), false, uint8(3), uint8(16), uint8(10), uint8(2), uint64(1), prandBytes(37*23, 1))
	f.Add(uint8(4), uint8(39), true, uint8(4), uint8(0), uint8(6), uint8(0), uint64(2), prandBytes(26, 2))
	f.Add(uint8(16), uint8(8), false, uint8(1), uint8(3), uint8(3), uint8(1), uint64(3), prandBytes(17*9, 3))
	f.Add(uint8(47), uint8(47), true, uint8(2), uint8(50), uint8(20), uint8(2), uint64(4), prandBytes(41, 4))
	f.Fuzz(func(t *testing.T, w, h uint8, plateau bool, capSel, bandRows, threshold, tie uint8, seed uint64, pix []byte) {
		im := fuzzImage(1+int(w%48), 1+int(h%48), plateau, pix)
		cfg := core.Config{
			Threshold: int(threshold % 21),
			Tie:       rag.AllTiePolicies()[tie%3],
			Seed:      seed,
			MaxSquare: []int{0, 1, 2, 8, quadsplit.Unbounded}[capSel%5],
		}
		cap := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, im.W, im.H)
		rows := int(bandRows) % (im.H + cap + 1)
		var pgm bytes.Buffer
		if err := pixmap.WritePGM(&pgm, im); err != nil {
			t.Fatal(err)
		}
		seg := sequentialSeg(t, im, cfg)
		name := fmt.Sprintf("%dx%d plateau=%t %+v bands of %d rows", im.W, im.H, plateau, cfg, rows)
		for _, out := range []struct {
			format Output
			want   []byte
		}{{OutputLabels, labelBytes(t, seg)}, {OutputRecolour, recolourBytes(t, seg, im)}} {
			var got bytes.Buffer
			if _, err := Segment(context.Background(), bytes.NewReader(pgm.Bytes()), &got, cfg, core.Run{},
				Options{BandRows: rows, Output: out.format}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got.Bytes(), out.want) {
				t.Fatalf("%s: output %d differs from the sequential engine's", name, out.format)
			}
		}
	})
}

// prandBytes returns n bytes of prand stream seed.
func prandBytes(n int, seed uint64) []byte {
	r := prand.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}
