package regiongrow

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineKindRoundTrip: every engine kind — the five simulated
// configurations plus the sequential and native engines — has a stable
// name that survives a String/ParseEngineKind round trip; unknown names
// are rejected with a descriptive error.
func TestEngineKindRoundTrip(t *testing.T) {
	kinds := append([]EngineKind{SequentialEngine, NativeParallel, Distributed}, AllEngineKinds()...)
	for _, k := range kinds {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "EngineKind(") {
			t.Errorf("kind %d has no stable name: %q", int(k), name)
		}
		parsed, err := ParseEngineKind(name)
		if err != nil || parsed != k {
			t.Errorf("round trip %v: %v, %v", k, parsed, err)
		}
	}
	// Matching is case-insensitive but not whitespace-forgiving.
	for name, want := range map[string]EngineKind{"Native": NativeParallel,
		"SEQUENTIAL": SequentialEngine, "Cm5-Async": CM5Async} {
		parsed, err := ParseEngineKind(name)
		if err != nil || parsed != want {
			t.Errorf("ParseEngineKind(%q) = %v, %v; want %v", name, parsed, err, want)
		}
	}
	for _, bad := range []string{"bogus", "", "sequential "} {
		_, err := ParseEngineKind(bad)
		if err == nil {
			t.Fatalf("parsed %q", bad)
		}
		if !strings.Contains(err.Error(), "unknown engine") || !strings.Contains(err.Error(), "native") {
			t.Errorf("ParseEngineKind(%q) error not descriptive: %v", bad, err)
		}
	}
}

// TestParseTiePolicy: tie policy names round-trip case-insensitively and
// unknown names are rejected with the valid choices in the error text.
func TestParseTiePolicy(t *testing.T) {
	for _, p := range []TiePolicy{SmallestIDTie, LargestIDTie, RandomTie} {
		parsed, err := ParseTiePolicy(p.String())
		if err != nil || parsed != p {
			t.Errorf("round trip %v: %v, %v", p, parsed, err)
		}
	}
	if p, err := ParseTiePolicy("Smallest-ID"); err != nil || p != SmallestIDTie {
		t.Errorf("ParseTiePolicy(Smallest-ID) = %v, %v", p, err)
	}
	_, err := ParseTiePolicy("coin-flip")
	if err == nil || !strings.Contains(err.Error(), "smallest-id") {
		t.Errorf("ParseTiePolicy(coin-flip) error not descriptive: %v", err)
	}
}

// TestParsePaperImageID: every paper image resolves by short name and by
// bare digit, case-insensitively; out-of-range names are rejected.
func TestParsePaperImageID(t *testing.T) {
	for i, id := range AllPaperImageIDs() {
		for _, name := range []string{
			// e.g. "image3", "3", "IMAGE3"
			"image" + string(rune('1'+i)), string(rune('1' + i)), "IMAGE" + string(rune('1'+i)),
		} {
			parsed, err := ParsePaperImageID(name)
			if err != nil || parsed != id {
				t.Errorf("ParsePaperImageID(%q) = %v, %v; want %v", name, parsed, err, id)
			}
		}
	}
	for _, bad := range []string{"image0", "image7", "img3", "", "3.5"} {
		if _, err := ParsePaperImageID(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

// TestCanonicalizeConfigAndCacheKey: the cache key is exactly as
// discriminating as the engines' determinism requires — seed inert under
// deterministic ties, MaxSquare resolved to its effective cap, everything
// else significant.
func TestCanonicalizeConfigAndCacheKey(t *testing.T) {
	im := GeneratePaperImage(Image1NestedRects128)
	base := Config{Threshold: 10, Tie: RandomTie, Seed: 1}

	if c := CanonicalizeConfig(Config{Tie: SmallestIDTie, Seed: 99}); c.Seed != 0 {
		t.Errorf("smallest-id seed not zeroed: %+v", c)
	}
	if c := CanonicalizeConfig(base); c.Seed != 1 {
		t.Errorf("random seed must survive canonicalization: %+v", c)
	}

	key := func(cfg Config, kind EngineKind) string { return CacheKey(im, cfg, kind) }
	same := [][2]Config{
		// Seed is inert under deterministic tie policies.
		{{Threshold: 10, Tie: SmallestIDTie, Seed: 1}, {Threshold: 10, Tie: SmallestIDTie, Seed: 2}},
		// 0 means N/8, which is 16 for a 128px image.
		{{Threshold: 10, Tie: RandomTie, Seed: 1, MaxSquare: 0}, {Threshold: 10, Tie: RandomTie, Seed: 1, MaxSquare: 16}},
	}
	for _, pair := range same {
		if key(pair[0], SequentialEngine) != key(pair[1], SequentialEngine) {
			t.Errorf("configs %+v and %+v should share a cache key", pair[0], pair[1])
		}
	}
	diff := []Config{
		{Threshold: 11, Tie: RandomTie, Seed: 1},
		{Threshold: 10, Tie: RandomTie, Seed: 2},
		{Threshold: 10, Tie: SmallestIDTie, Seed: 1},
		{Threshold: 10, Tie: RandomTie, Seed: 1, MaxSquare: 8},
	}
	for _, cfg := range diff {
		if key(base, SequentialEngine) == key(cfg, SequentialEngine) {
			t.Errorf("config %+v should not share the base cache key", cfg)
		}
	}
	if key(base, SequentialEngine) == key(base, NativeParallel) {
		t.Error("engine kinds should not share cache keys (their reported timings differ)")
	}
	im2 := GeneratePaperImage(Image2Rects128)
	if CacheKey(im, base, SequentialEngine) == CacheKey(im2, base, SequentialEngine) {
		t.Error("different images should not share cache keys")
	}
	if HashImage(im) == HashImage(im2) {
		t.Error("different images should not share content hashes")
	}
}

func TestMachineConfig(t *testing.T) {
	if _, ok := SequentialEngine.MachineConfig(); ok {
		t.Fatal("sequential should have no machine config")
	}
	if _, ok := NativeParallel.MachineConfig(); ok {
		t.Fatal("native should have no machine config")
	}
	for _, k := range AllEngineKinds() {
		if _, ok := k.MachineConfig(); !ok {
			t.Errorf("%v missing machine config", k)
		}
	}
}

func TestNewEngineAllKinds(t *testing.T) {
	for _, k := range append([]EngineKind{SequentialEngine, NativeParallel}, AllEngineKinds()...) {
		eng, err := NewEngine(k)
		if err != nil || eng == nil {
			t.Errorf("NewEngine(%v): %v", k, err)
		}
	}
	if _, err := NewEngine(EngineKind(99)); err == nil {
		t.Fatal("NewEngine(99) succeeded")
	}
}

func TestQuickstartFlow(t *testing.T) {
	im := GeneratePaperImage(Image2Rects128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	seg, err := Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seg.FinalRegions != 7 {
		t.Fatalf("final regions = %d, want 7", seg.FinalRegions)
	}
	if err := Validate(seg, im, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestImageIO(t *testing.T) {
	im := NewImage(8, 8)
	im.FillRect(0, 0, 8, 8, 42)
	path := filepath.Join(t.TempDir(), "x.pgm")
	if err := SavePGM(path, im); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPGM(path)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(back) {
		t.Fatal("round trip failed")
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-config experiment")
	}
	exp, err := RunExperiment(context.Background(), Image2Rects128, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 5 {
		t.Fatalf("rows = %d", len(exp.Rows))
	}
	if exp.FinalRegions != 7 {
		t.Fatalf("final regions = %d", exp.FinalRegions)
	}
	var sb strings.Builder
	WriteTable(&sb, exp)
	if !strings.Contains(sb.String(), "Image 2") {
		t.Fatal("table render wrong")
	}
	sb.Reset()
	WriteFigure3(&sb, []Experiment{exp})
	if !strings.Contains(sb.String(), "Figure 3") {
		t.Fatal("figure render wrong")
	}
	if bad := CheckOrderings([]Experiment{exp}); len(bad) > 0 {
		t.Fatalf("orderings violated: %v", bad)
	}
}

// TestCrossEngineEquivalence is the central integration test: every
// engine produces the identical segmentation for identical configs.
func TestCrossEngineEquivalence(t *testing.T) {
	im := GeneratePaperImage(Image3Circles128)
	for _, tie := range []TiePolicy{SmallestIDTie, RandomTie} {
		cfg := Config{Threshold: 10, Tie: tie, Seed: 1234}
		ref, err := Segment(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range append([]EngineKind{NativeParallel}, AllEngineKinds()...) {
			eng, err := NewEngine(k)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := eng.Segment(im, cfg)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			if !ref.EqualLabels(seg) {
				t.Errorf("%v (tie=%v): segmentation differs from sequential", k, tie)
			}
			if ref.MergeIterations != seg.MergeIterations {
				t.Errorf("%v (tie=%v): merge iterations %d vs %d", k, tie, ref.MergeIterations, seg.MergeIterations)
			}
		}
	}
}

func TestTiePolicyAblation(t *testing.T) {
	// The paper's claim C1: random tie-breaking yields more merges per
	// iteration (fewer iterations) than smallest-ID on their inputs.
	im := GeneratePaperImage(Image1NestedRects128)
	smallest, err := Segment(im, Config{Threshold: 10, Tie: SmallestIDTie})
	if err != nil {
		t.Fatal(err)
	}
	random, err := Segment(im, Config{Threshold: 10, Tie: RandomTie, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if random.MergeIterations > smallest.MergeIterations {
		t.Fatalf("random (%d iters) should not need more iterations than smallest-id (%d)",
			random.MergeIterations, smallest.MergeIterations)
	}
	if random.FinalRegions != smallest.FinalRegions {
		t.Fatalf("policies disagree on final regions: %d vs %d",
			random.FinalRegions, smallest.FinalRegions)
	}
}
