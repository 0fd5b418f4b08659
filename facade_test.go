package regiongrow

import (
	"context"
	"errors"
	"strings"
	"testing"

	"regiongrow/internal/machine"
)

// TestNativeSessionFacade: a native session matches the sequential
// reference on a paper image, and the native engine kind's MachineConfig
// reports no simulated machine.
func TestNativeSessionFacade(t *testing.T) {
	im := GeneratePaperImage(Image3Circles128)
	cfg := DefaultConfig()
	want, err := segmentKind(SequentialEngine, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := segmentKind(NativeParallel, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualLabels(got) {
		t.Fatal("native labels differ from sequential")
	}
	if got.FinalRegions != 11 {
		t.Fatalf("native regions = %d, want 11", got.FinalRegions)
	}
	if _, ok := NativeParallel.MachineConfig(); ok {
		t.Fatal("NativeParallel reports a simulated machine config")
	}
	if err := Validate(got, im, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentSerial(t *testing.T) {
	im := GeneratePaperImage(Image2Rects128)
	seg, err := SegmentSerial(context.Background(), im, Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if seg.FinalRegions != 7 {
		t.Fatalf("serial baseline regions = %d", seg.FinalRegions)
	}
	if err := Validate(seg, im, Config{Threshold: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentSerialOneMergePerIteration: the harness baseline merges one
// pair per iteration, so it needs exactly squares − regions iterations —
// the paper's R−1 bound — and reaches the sequential engine's region
// count on a clean paper image.
func TestSegmentSerialOneMergePerIteration(t *testing.T) {
	im := GeneratePaperImage(Image1NestedRects128)
	cfg := Config{Threshold: 10}
	seg, err := SegmentSerial(context.Background(), im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range seg.MergesPerIter {
		if m != 1 {
			t.Fatalf("iteration %d merged %d pairs, want 1", i+1, m)
		}
	}
	if want := seg.SquaresAfterSplit - seg.FinalRegions; seg.MergeIterations != want {
		t.Fatalf("merge iterations = %d, want %d", seg.MergeIterations, want)
	}
	ref, err := segmentKind(SequentialEngine, im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seg.FinalRegions != ref.FinalRegions || seg.SplitIterations != ref.SplitIterations {
		t.Fatalf("baseline %d regions / %d split passes, sequential %d / %d",
			seg.FinalRegions, seg.SplitIterations, ref.FinalRegions, ref.SplitIterations)
	}
}

func TestSegmentSerialCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seg, err := SegmentSerial(ctx, GeneratePaperImage(Image2Rects128), Config{Threshold: 10})
	if !errors.Is(err, context.Canceled) || seg != nil {
		t.Fatalf("SegmentSerial on a cancelled ctx = %v, %v; want nil, context.Canceled", seg, err)
	}
}

// TestNativeRowMatchesSession: the harness's native row reports the
// iteration counts of a native session on the same image and config,
// under the host-native configuration ID, and passes cancellation
// through.
func TestNativeRowMatchesSession(t *testing.T) {
	cfg := DefaultConfig()
	row, err := NativeRow(context.Background(), Image3Circles128, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segmentKind(NativeParallel, GeneratePaperImage(Image3Circles128), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Config != machine.HostNative || row.SplitIters != seg.SplitIterations || row.MergeIters != seg.MergeIterations {
		t.Fatalf("row %+v, session split %d / merge %d iterations", row, seg.SplitIterations, seg.MergeIterations)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NativeRow(ctx, Image3Circles128, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("NativeRow on a cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestRegionStatsFacade(t *testing.T) {
	im := GeneratePaperImage(Image2Rects128)
	seg, err := segmentKind(SequentialEngine, im, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs := ComputeRegionStats(seg, im)
	if len(rs) != seg.FinalRegions {
		t.Fatalf("stats for %d regions, segmentation has %d", len(rs), seg.FinalRegions)
	}
	total := 0
	for _, r := range rs {
		total += r.Area
	}
	if total != im.W*im.H {
		t.Fatalf("areas cover %d of %d pixels", total, im.W*im.H)
	}
	sum := SummarizeRegions(rs)
	if sum.Regions != 7 || sum.MaxRange > 10 {
		t.Fatalf("summary = %+v", sum)
	}

	var dot, js strings.Builder
	if err := WriteRegionDOT(&dot, rs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "graph rag") {
		t.Fatal("DOT output malformed")
	}
	if err := WriteRegionJSON(&js, rs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"area"`) {
		t.Fatal("JSON output malformed")
	}
}

func TestRecolour(t *testing.T) {
	im := GeneratePaperImage(Image1NestedRects128)
	seg, err := segmentKind(SequentialEngine, im, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rc := Recolour(seg, im)
	if rc.W != im.W || rc.H != im.H {
		t.Fatal("recoloured dims wrong")
	}
	// Exactly as many distinct shades as regions (intervals are disjoint
	// on this clean image).
	shades := map[uint8]bool{}
	for _, p := range rc.Pix {
		shades[p] = true
	}
	if len(shades) != seg.FinalRegions {
		t.Fatalf("%d shades for %d regions", len(shades), seg.FinalRegions)
	}
	// Pixels of one region share one shade.
	for i, lab := range seg.Labels {
		if rc.Pix[i] != rc.Pix[lab] {
			t.Fatal("region not uniformly recoloured")
		}
	}
}

func TestSegmentationInvariantUnderFlips(t *testing.T) {
	// The region structure of a paper image must be preserved under
	// horizontal/vertical mirroring and rotation: same number of regions
	// with the same multiset of areas.
	im := GeneratePaperImage(Image2Rects128)
	base, err := segmentKind(SequentialEngine, im, Config{Threshold: 10, Tie: SmallestIDTie})
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Image{
		"flipH":    im.FlipH(),
		"flipV":    im.FlipV(),
		"rotate90": im.Rotate90(),
	} {
		seg, err := segmentKind(SequentialEngine, tr, Config{Threshold: 10, Tie: SmallestIDTie})
		if err != nil {
			t.Fatal(err)
		}
		if seg.FinalRegions != base.FinalRegions {
			t.Errorf("%s: %d regions, want %d", name, seg.FinalRegions, base.FinalRegions)
		}
		if !sameAreaMultiset(base, seg) {
			t.Errorf("%s: region area multiset changed", name)
		}
	}
}

func sameAreaMultiset(a, b *Segmentation) bool {
	count := map[int]int{}
	for _, r := range a.Regions {
		count[r.Area]++
	}
	for _, r := range b.Regions {
		count[r.Area]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestUpscaledImageSameStructure(t *testing.T) {
	// Pixel replication must preserve the region structure (areas scale
	// by the square of the factor).
	im := GeneratePaperImage(Image2Rects128)
	up, err := im.Upsample(2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := segmentKind(SequentialEngine, im, Config{Threshold: 10, Tie: SmallestIDTie})
	if err != nil {
		t.Fatal(err)
	}
	b, err := segmentKind(SequentialEngine, up, Config{Threshold: 10, Tie: SmallestIDTie})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalRegions != b.FinalRegions {
		t.Fatalf("upsampled image: %d regions, want %d", b.FinalRegions, a.FinalRegions)
	}
}
