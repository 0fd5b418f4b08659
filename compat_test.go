package regiongrow

import (
	"context"
	"strings"
	"testing"

	"regiongrow/internal/core"
)

// TestShimsByteIdenticalToSessions pins the compat.go contract: every
// deprecated one-shot is a pure delegation to the session API, so its
// labels (and region count) must be byte-identical to a freshly
// constructed Segmenter run with the same Config — pooling and session
// reuse inside the shared shim sessions cannot leak into results.
func TestShimsByteIdenticalToSessions(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []Config{
		{Threshold: 10, Tie: SmallestIDTie},
		{Threshold: 10, Tie: RandomTie, Seed: 42},
	} {
		for _, id := range []PaperImageID{Image2Rects128, Image3Circles128} {
			im := GeneratePaperImage(id)

			seq, err := New(SequentialEngine)
			if err != nil {
				t.Fatal(err)
			}
			want, err := seq.Segment(ctx, im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Segment(im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !want.EqualLabels(got) {
				t.Fatalf("%v %+v: Segment shim labels differ from a fresh sequential session", id, cfg)
			}

			nat, err := New(NativeParallel)
			if err != nil {
				t.Fatal(err)
			}
			want, err = nat.Segment(ctx, im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err = SegmentNative(im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !want.EqualLabels(got) {
				t.Fatalf("%v %+v: SegmentNative shim labels differ from a fresh native session", id, cfg)
			}

			// The serial baseline has no public EngineKind, so its fresh
			// reference is the engine run directly, unpooled.
			want, err = core.SerialBaseline{}.Segment(im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err = SegmentSerial(im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !want.EqualLabels(got) {
				t.Fatalf("%v %+v: SegmentSerial shim labels differ from a fresh baseline run", id, cfg)
			}
		}
	}
}

// TestEnumerationsRoundTrip: every value the All* enumerations list
// parses back to itself through the matching Parse function — upper,
// lower, and mixed case — so the enumerations and the parsers cannot
// drift apart.
func TestEnumerationsRoundTrip(t *testing.T) {
	for _, k := range parseableEngineKinds() {
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
		for _, k := range parseableEngineKinds() {
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
