package regiongrow

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sessionOf constructs a session of the given kind or fails the test.
func sessionOf(tb testing.TB, kind EngineKind) *Segmenter {
	tb.Helper()
	s, err := New(kind)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// engineOf returns the engine behind a fresh session of the given kind,
// for callers that run it directly: unpooled, with no observer.
func engineOf(tb testing.TB, kind EngineKind) Engine {
	tb.Helper()
	return sessionOf(tb, kind).Engine()
}

// segmentKind runs one segmentation on a fresh session of the given kind.
func segmentKind(kind EngineKind, im *Image, cfg Config) (*Segmentation, error) {
	s, err := New(kind)
	if err != nil {
		return nil, err
	}
	return s.Segment(context.Background(), im, cfg)
}

// tableKinds lists the kinds with a row in the paper's tables: those
// that simulate a machine configuration.
func tableKinds() []EngineKind {
	var kinds []EngineKind
	for _, k := range AllEngineKinds() {
		if _, ok := k.MachineConfig(); ok {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// TestAllEngineKindsIsTheOneList: AllEngineKinds holds every kind with a
// stable name, once each and in declaration order, and exactly five of
// them — the paper's machine configurations — report a MachineConfig.
func TestAllEngineKindsIsTheOneList(t *testing.T) {
	var named []EngineKind
	for k := EngineKind(-16); k < 256; k++ {
		if !strings.HasPrefix(k.String(), "EngineKind(") {
			named = append(named, k)
		}
	}
	if got := AllEngineKinds(); !slices.Equal(got, named) {
		t.Fatalf("AllEngineKinds() = %v, want every named kind in declaration order %v", got, named)
	}
	if n := len(tableKinds()); n != 5 {
		t.Fatalf("%d kinds report a MachineConfig, want the paper's 5", n)
	}
}

// TestEngineKindRoundTrip: every engine kind has a stable name that
// survives a String/ParseEngineKind round trip; unknown names are
// rejected with a descriptive error.
func TestEngineKindRoundTrip(t *testing.T) {
	for _, k := range AllEngineKinds() {
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

// TestEnumerationsRoundTrip: every value the All* enumerations list
// parses back to itself through the matching Parse function — upper,
// lower, and mixed case — so the enumerations and the parsers cannot
// drift apart.
func TestEnumerationsRoundTrip(t *testing.T) {
	for _, k := range AllEngineKinds() {
		for _, s := range []string{k.String(), strings.ToUpper(k.String())} {
			got, err := ParseEngineKind(s)
			if err != nil || got != k {
				t.Errorf("ParseEngineKind(%q) = %v, %v; want %v", s, got, err, k)
			}
		}
	}
	if len(AllTiePolicies()) != 3 {
		t.Fatalf("AllTiePolicies() has %d entries, want 3", len(AllTiePolicies()))
	}
	for _, p := range AllTiePolicies() {
		for _, s := range []string{p.String(), strings.ToUpper(p.String())} {
			got, err := ParseTiePolicy(s)
			if err != nil || got != p {
				t.Errorf("ParseTiePolicy(%q) = %v, %v; want %v", s, got, err, p)
			}
		}
	}
	ids := AllPaperImageIDs()
	if len(ids) != 6 {
		t.Fatalf("AllPaperImageIDs() has %d entries, want 6", len(ids))
	}
	for _, id := range ids {
		for _, s := range []string{id.ShortName(), strings.ToUpper(id.ShortName())} {
			got, err := ParsePaperImageID(s)
			if err != nil || got != id {
				t.Errorf("ParsePaperImageID(%q) = %v, %v; want %v", s, got, err, id)
			}
		}
	}
}

// TestParseErrorsEnumerateChoices: a failed parse names every valid
// choice, derived from the same enumeration the parser matches against.
func TestParseErrorsEnumerateChoices(t *testing.T) {
	if _, err := ParseEngineKind("warp-drive"); err == nil {
		t.Fatal("bogus engine parsed")
	} else {
		for _, k := range AllEngineKinds() {
			if !strings.Contains(err.Error(), k.String()) {
				t.Errorf("ParseEngineKind error omits %q: %v", k, err)
			}
		}
	}
	if _, err := ParseTiePolicy("coin-flip"); err == nil {
		t.Fatal("bogus tie policy parsed")
	} else {
		for _, p := range AllTiePolicies() {
			if !strings.Contains(err.Error(), p.String()) {
				t.Errorf("ParseTiePolicy error omits %q: %v", p, err)
			}
		}
	}
	if _, err := ParsePaperImageID("image9"); err == nil {
		t.Fatal("bogus paper image parsed")
	} else {
		for _, id := range AllPaperImageIDs() {
			if !strings.Contains(err.Error(), id.ShortName()) {
				t.Errorf("ParsePaperImageID error omits %q: %v", id.ShortName(), err)
			}
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

// TestMachineConfig: exactly the simulated CM kinds report a machine
// configuration; sequential, native and dist model no machine.
func TestMachineConfig(t *testing.T) {
	for _, k := range AllEngineKinds() {
		_, ok := k.MachineConfig()
		if want := strings.HasPrefix(k.String(), "cm"); ok != want {
			t.Errorf("%v: MachineConfig reported %v, want %v", k, ok, want)
		}
	}
}

// TestNewAllKinds: New builds every kind but Distributed (which needs
// WithClusterWorkers; see TestDistributedSegmenter) and rejects unknown
// kinds.
func TestNewAllKinds(t *testing.T) {
	for _, k := range AllEngineKinds() {
		if k == Distributed {
			continue
		}
		s, err := New(k)
		if err != nil || s.Engine() == nil {
			t.Errorf("New(%v): %v", k, err)
		}
	}
	if _, err := New(EngineKind(99)); err == nil {
		t.Fatal("New(99) succeeded")
	}
}

// TestNewBuildsEachKindItsOwnEngine: New maps every local kind to its own
// engine — no two kinds share an engine name — and the session reports
// the kind it was built for.
func TestNewBuildsEachKindItsOwnEngine(t *testing.T) {
	seen := make(map[string]EngineKind)
	for _, k := range AllEngineKinds() {
		if k == Distributed {
			continue
		}
		s := sessionOf(t, k)
		if s.Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, s.Kind())
		}
		name := s.Engine().Name()
		if prev, dup := seen[name]; dup {
			t.Errorf("%v and %v both run engine %q", prev, k, name)
		}
		seen[name] = k
	}
}

func TestQuickstartFlow(t *testing.T) {
	im := GeneratePaperImage(Image2Rects128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	seg, err := segmentKind(SequentialEngine, im, cfg)
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
		ref, err := segmentKind(SequentialEngine, im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range AllEngineKinds() {
			if k == SequentialEngine || k == Distributed {
				continue // the reference itself; dist is TestDistributedSegmenter's
			}
			seg, err := segmentKind(k, im, cfg)
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
	smallest, err := segmentKind(SequentialEngine, im, Config{Threshold: 10, Tie: SmallestIDTie})
	if err != nil {
		t.Fatal(err)
	}
	random, err := segmentKind(SequentialEngine, im, Config{Threshold: 10, Tie: RandomTie, Seed: 1})
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
