package regiongrow

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/distengine/disttest"
	"regiongrow/internal/dpengine"
	"regiongrow/internal/machine"
	"regiongrow/internal/mpengine"
	"regiongrow/internal/mpvm"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/transport"
)

// TestFullMatrixSmallImages drives every engine (plus custom node counts
// and both schemes) across a grid of image shapes, thresholds, and
// policies, requiring byte-identical segmentations throughout. This is
// the repository's broadest integration test.
func TestFullMatrixSmallImages(t *testing.T) {
	type img struct {
		name string
		im   *pixmap.Image
	}
	images := []img{
		{"uniform32", pixmap.Uniform(32, 80)},
		{"checker32", pixmap.Checkerboard(32, 0, 255)},
		{"gradient64", pixmap.Gradient(64, 255)},
		{"random64", maskLow(pixmap.Random(64, 42))},
		{"rect64x32", rectScene(64, 32)},
	}
	engines := []core.Engine{}
	for _, mc := range []machine.ConfigID{machine.CM2_8K, machine.CM5_CMF} {
		engines = append(engines, dpengine.New(mc))
	}
	engines = append(engines,
		mpengine.NewCustom(4, mpvm.LP, machine.Get(machine.CM5_LP)),
		mpengine.NewCustom(8, mpvm.Async, machine.Get(machine.CM5_Async)),
		core.Native{},
		core.Native{Workers: 3},
		core.SerialBaseline{},
	)

	for _, tc := range images {
		for _, threshold := range []int{0, 10, 60} {
			for _, tie := range []TiePolicy{SmallestIDTie, RandomTie} {
				cfg := Config{Threshold: threshold, Tie: tie, Seed: 9, MaxSquare: 8}
				name := fmt.Sprintf("%s/T=%d/%v", tc.name, threshold, tie)
				ref, err := segmentKind(SequentialEngine, tc.im, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := Validate(ref, tc.im, cfg); err != nil {
					t.Fatalf("%s: sequential invalid: %v", name, err)
				}
				for _, eng := range engines {
					seg, err := eng.SegmentContext(context.Background(), tc.im, cfg, core.Run{})
					if err != nil {
						t.Fatalf("%s/%s: %v", name, eng.Name(), err)
					}
					if err := Validate(seg, tc.im, cfg); err != nil {
						t.Fatalf("%s/%s: invalid: %v", name, eng.Name(), err)
					}
					if _, serial := eng.(core.SerialBaseline); serial {
						// The baseline merges in a different order; it
						// must be valid but need not match labels.
						continue
					}
					if !ref.EqualLabels(seg) {
						t.Fatalf("%s/%s: labels differ from sequential", name, eng.Name())
					}
				}
			}
		}
	}
}

// fuzzField builds FuzzEnginesMatchSequential's w×h image around
// threshold T, as distengine's randomField does. kind picks plateaus of
// bw×bh blocks whose levels lie a step of T−1 to T+1 apart, a ramp
// rising by that step per column and k steps per row, or noise over
// 0..2T+1. The bytes of pix pick the step, block size, levels, slope and
// noise (0 past its end).
func fuzzField(w, h, threshold int, kind uint8, pix []byte) (*pixmap.Image, string) {
	at := func(i int) int {
		if i < len(pix) {
			return int(pix[i])
		}
		return 0
	}
	im := pixmap.New(w, h)
	step := max(threshold-1+at(0)%3, 0)
	switch kind % 3 {
	case 0:
		bw, bh := 1+at(1)%8, 1+at(2)%8
		cols := (w + bw - 1) / bw
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				im.Pix[y*w+x] = uint8(at(3+y/bh*cols+x/bw) % 6 * step)
			}
		}
		return im, fmt.Sprintf("plateau %dx%d step %d", bw, bh, step)
	case 1:
		k := at(1) % 3
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				im.Pix[y*w+x] = uint8((x + k*y) * step)
			}
		}
		return im, fmt.Sprintf("ramp k=%d step %d", k, step)
	default:
		for i := range im.Pix {
			im.Pix[i] = uint8(at(1+i) % (2*threshold + 2))
		}
		return im, "noise"
	}
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

// FuzzEnginesMatchSequential is the cross-engine generative oracle. On
// any W×H field (1–48 each) of plateaus, a ramp or noise built around
// the threshold, under T 0–20 or 255, square caps 0, 1, 2, 8 and
// Unbounded, any tie policy and any seed, every engine's labels must be
// byte-identical to the sequential engine's and pass core.Validate:
// Native at 1–3 workers; dpengine on its three machines; mpengine on 4
// nodes under LP and Async, where its 2×2 node grid and the cap divide
// the image; and distengine over an in-process transport at 1–3 workers,
// all on one cluster. SerialBaseline merges in another order, so it must
// pass core.Validate only.
func FuzzEnginesMatchSequential(f *testing.F) {
	mem := transport.NewMem()
	addrs := disttest.StartClusterOver(f, mem, 3)
	engines := []core.Engine{
		core.Native{Workers: 1}, core.Native{Workers: 2}, core.Native{Workers: 3},
		dpengine.New(machine.CM2_8K), dpengine.New(machine.CM2_16K), dpengine.New(machine.CM5_CMF),
	}
	for n := 1; n <= len(addrs); n++ {
		engines = append(engines, distengine.NewOver(mem, addrs[:n]))
	}
	gridEngines := []core.Engine{
		mpengine.NewCustom(4, mpvm.LP, machine.Get(machine.CM5_LP)),
		mpengine.NewCustom(4, mpvm.Async, machine.Get(machine.CM5_Async)),
	}
	f.Add(uint8(31), uint8(31), uint8(0), uint8(10), uint8(3), uint8(2), uint64(1), []byte{1, 4, 4, 0, 1, 2, 3, 4, 5, 0, 2})
	f.Add(uint8(23), uint8(40), uint8(1), uint8(3), uint8(0), uint8(0), uint64(2), []byte{2, 1})
	f.Add(uint8(15), uint8(7), uint8(2), uint8(6), uint8(1), uint8(1), uint64(3), prandBytes(16*8+1, 3))
	f.Add(uint8(47), uint8(1), uint8(2), uint8(21), uint8(4), uint8(2), uint64(4), prandBytes(48, 4))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(2), uint8(0), uint64(5), []byte{})
	f.Fuzz(func(t *testing.T, w, h, kind, tSel, capSel, tie uint8, seed uint64, pix []byte) {
		threshold := int(tSel % 22)
		if threshold == 21 {
			threshold = 255
		}
		im, field := fuzzField(1+int(w%48), 1+int(h%48), threshold, kind, pix)
		cfg := Config{
			Threshold: threshold,
			Tie:       AllTiePolicies()[tie%3],
			Seed:      seed,
			MaxSquare: []int{0, 1, 2, 8, Unbounded}[capSel%5],
		}
		name := fmt.Sprintf("%dx%d %s %+v", im.W, im.H, field, cfg)
		ctx := context.Background()
		want, err := core.Sequential{}.SegmentContext(ctx, im, cfg, core.Run{})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		if err := core.Validate(want, im, threshold); err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		run := engines
		cap := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, im.W, im.H)
		if im.W%2 == 0 && im.H%2 == 0 && im.W/2%cap == 0 && im.H/2%cap == 0 {
			run = append(run[:len(run):len(run)], gridEngines...)
		}
		for _, eng := range append(run[:len(run):len(run)], core.SerialBaseline{}) {
			got, err := eng.SegmentContext(ctx, im, cfg, core.Run{})
			if err != nil {
				t.Fatalf("%s: %s: %v", name, eng.Name(), err)
			}
			if err := core.Validate(got, im, threshold); err != nil {
				t.Fatalf("%s: %s: %v", name, eng.Name(), err)
			}
			if _, serial := eng.(core.SerialBaseline); !serial && !got.EqualLabels(want) {
				t.Fatalf("%s: %s: labels differ from sequential", name, eng.Name())
			}
		}
	})
}

func maskLow(im *pixmap.Image) *pixmap.Image {
	for i := range im.Pix {
		im.Pix[i] &= 0x3F
	}
	return im
}

func rectScene(w, h int) *pixmap.Image {
	im := pixmap.New(w, h)
	im.FillRect(0, 0, w, h, 30)
	im.FillRect(w/8+1, h/8+1, w-w/8-1, h-h/8-1, 120)
	im.FillRect(w/2, h/4, w-2, h/2, 220)
	return im
}

// TestNativeMatchesSequentialOnPaperImages is the native engine's
// acceptance property: byte-identical segmentations to the sequential
// reference on all six paper images under all three tie policies.
func TestNativeMatchesSequentialOnPaperImages(t *testing.T) {
	for _, id := range AllPaperImageIDs() {
		im := GeneratePaperImage(id)
		for _, tie := range []TiePolicy{SmallestIDTie, LargestIDTie, RandomTie} {
			cfg := Config{Threshold: 10, Tie: tie, Seed: 1}
			ref, err := segmentKind(SequentialEngine, im, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", id, tie, err)
			}
			seg, err := segmentKind(NativeParallel, im, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", id, tie, err)
			}
			if !ref.EqualLabels(seg) {
				t.Errorf("%v/%v: native labels differ from sequential", id, tie)
			}
			if seg.MergeIterations != ref.MergeIterations {
				t.Errorf("%v/%v: native merge iters %d, want %d", id, tie, seg.MergeIterations, ref.MergeIterations)
			}
			if err := Validate(seg, im, cfg); err != nil {
				t.Errorf("%v/%v: %v", id, tie, err)
			}
		}
	}
}

// TestRunExperimentWithNative checks the optional sixth table row: the
// native engine's row carries host wall times, no simulated seconds, and
// the same split iteration count as the simulated rows.
func TestRunExperimentWithNative(t *testing.T) {
	exp, err := RunExperimentWithNative(context.Background(), Image2Rects128, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 6 {
		t.Fatalf("%d rows, want 5 simulated + 1 native", len(exp.Rows))
	}
	nat := exp.Rows[5]
	if nat.Config != machine.HostNative {
		t.Fatalf("last row config = %v, want HostNative", nat.Config)
	}
	if nat.SplitSecs != 0 || nat.MergeSecs != 0 {
		t.Fatalf("native row has simulated seconds: %+v", nat)
	}
	if nat.SplitIters != exp.Rows[0].SplitIters {
		t.Fatalf("native split iters %d, want %d", nat.SplitIters, exp.Rows[0].SplitIters)
	}
	if nat.WallSplit <= 0 || nat.WallMerge <= 0 {
		t.Fatalf("native row missing host wall times: %+v", nat)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/paper_eval.golden from the current engines")

// TestPaperOrderingsHold regenerates the full evaluation (all six images,
// all five configurations) and asserts the paper's qualitative claims
// C2–C5 hold in the model — the repository's headline reproduction
// property. It also pins every simulated time and count the evaluation
// prints: the six tables and Figure 3, rendered as cmd/benchtab prints
// them by default, must equal testdata/paper_eval.golden byte for byte
// (benchtab's stdout up to its closing orderings line). Regenerate with
// `go test -run PaperOrderings -update` after a deliberate cost-model
// change.
func TestPaperOrderingsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full 30-run evaluation")
	}
	exps, err := RunAllExperiments(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, exp := range exps {
		fmt.Fprintf(&buf, "=== Table %d ===\n", i+1)
		WriteTable(&buf, exp)
		fmt.Fprintln(&buf)
	}
	WriteFigure3(&buf, exps)
	fmt.Fprintln(&buf)
	path := filepath.Join("testdata", "paper_eval.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		got, want := strings.Split(buf.String(), "\n"), strings.Split(string(golden), "\n")
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		line := func(lines []string) string {
			if i < len(lines) {
				return lines[i]
			}
			return "(end)"
		}
		t.Errorf("evaluation differs from %s at line %d:\n  got    %q\n  golden %q", path, i+1, line(got), line(want))
	}
	if bad := CheckOrderings(exps); len(bad) > 0 {
		for _, b := range bad {
			t.Error(b)
		}
	}
	// Structural fidelity: exact split iterations and final region counts.
	wantRegions := map[PaperImageID]int{
		Image1NestedRects128: 2, Image2Rects128: 7, Image3Circles128: 11,
		Image4NestedRects256: 2, Image5Rects256: 7, Image6Tool256: 4,
	}
	for _, exp := range exps {
		if exp.FinalRegions != wantRegions[exp.Image] {
			t.Errorf("%v: %d final regions, want %d", exp.Image, exp.FinalRegions, wantRegions[exp.Image])
		}
		wantIters := 4
		if exp.Image.Size() == 256 {
			wantIters = 5
		}
		for _, row := range exp.Rows {
			if row.SplitIters != wantIters {
				t.Errorf("%v %v: split iters %d, want %d", exp.Image, row.Config, row.SplitIters, wantIters)
			}
		}
	}
}

// TestSeedsChangeHistoryNotValidity: different seeds may take different
// merge paths but always produce valid segmentations, and on the clean
// paper images the same final count.
func TestSeedsChangeHistoryNotValidity(t *testing.T) {
	im := GeneratePaperImage(Image2Rects128)
	counts := map[int]bool{}
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := Config{Threshold: 10, Tie: RandomTie, Seed: seed}
		seg, err := segmentKind(SequentialEngine, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(seg, im, cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		counts[seg.FinalRegions] = true
	}
	if len(counts) != 1 || !counts[7] {
		t.Fatalf("region counts varied across seeds: %v", counts)
	}
}
