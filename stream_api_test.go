package regiongrow

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// TestSegmentStreamMatchesSequential pins the facade contract: streamed
// output is byte-identical to the sequential engine's, in both formats.
// (The exhaustive image × tie × band-geometry sweep lives in
// internal/stream; this guards the facade wiring.)
//
// The temp directory is missing: the streaming path creates no file.
func TestSegmentStreamMatchesSequential(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	im := GeneratePaperImage(Image3Circles128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	seg, err := segmentKind(SequentialEngine, im, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var pgm bytes.Buffer
	if err := WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}

	var wantLabels bytes.Buffer
	if err := EncodeLabels(&wantLabels, seg); err != nil {
		t.Fatal(err)
	}
	var gotLabels bytes.Buffer
	res, err := SegmentStream(context.Background(), bytes.NewReader(pgm.Bytes()), &gotLabels, cfg,
		WithStreamOutput(StreamLabels), WithStreamBandRows(40))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLabels.Bytes(), wantLabels.Bytes()) {
		t.Error("streamed labels differ from the sequential engine")
	}
	if res.FinalRegions != seg.FinalRegions {
		t.Errorf("FinalRegions = %d, sequential %d", res.FinalRegions, seg.FinalRegions)
	}

	var wantPGM bytes.Buffer
	if err := WritePGM(&wantPGM, Recolour(seg, im)); err != nil {
		t.Fatal(err)
	}
	var gotPGM bytes.Buffer
	if _, err := SegmentStream(context.Background(), bytes.NewReader(pgm.Bytes()), &gotPGM, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPGM.Bytes(), wantPGM.Bytes()) {
		t.Error("streamed recoloured PGM differs from the sequential engine")
	}
}

// TestSegmentStreamObserver confirms the facade threads the observer and
// context through the standard contract.
func TestSegmentStreamObserver(t *testing.T) {
	im := GeneratePaperImage(Image1NestedRects128)
	var pgm bytes.Buffer
	if err := WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	var sawSplit, sawMergeDone bool
	obs := ObserverFunc(func(ev StageEvent) {
		switch ev.Kind {
		case EventSplitStart:
			sawSplit = true
		case EventMergeDone:
			sawMergeDone = true
		}
	})
	if _, err := SegmentStream(context.Background(), &pgm, &bytes.Buffer{},
		Config{Threshold: 10}, WithStreamObserver(obs)); err != nil {
		t.Fatal(err)
	}
	if !sawSplit || !sawMergeDone {
		t.Fatalf("observer missed events: split=%v mergeDone=%v", sawSplit, sawMergeDone)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pgm.Reset()
	if err := WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	if _, err := SegmentStream(ctx, &pgm, &bytes.Buffer{}, Config{Threshold: 10}); err != context.Canceled {
		t.Fatalf("cancelled stream returned %v, want context.Canceled", err)
	}
}

// unreadable fails the test on any Read.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("SegmentStream read its input despite an invalid config")
	return 0, errors.New("unreadable")
}

// TestSegmentStreamRefusesInvalidConfig: each invalid field is refused
// with ErrInvalidConfig before the input is read.
func TestSegmentStreamRefusesInvalidConfig(t *testing.T) {
	for field, cfg := range badConfigs {
		var out bytes.Buffer
		if _, err := SegmentStream(context.Background(), unreadable{t}, &out, cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("bad %s: err = %v, want ErrInvalidConfig", field, err)
		}
		if out.Len() != 0 {
			t.Errorf("bad %s: wrote %d bytes", field, out.Len())
		}
	}
}

// TestStreamOptionErrors pins option validation. WithStreamSpoolDir is
// inert: it accepts a directory that does not exist and changes nothing.
func TestStreamOptionErrors(t *testing.T) {
	if _, err := SegmentStream(context.Background(), &bytes.Buffer{}, &bytes.Buffer{},
		Config{}, WithStreamBandRows(-1)); err == nil {
		t.Error("accepted negative band rows")
	}
	if _, err := SegmentStream(context.Background(), &bytes.Buffer{}, &bytes.Buffer{},
		Config{}, WithStreamOutput(StreamOutput(99))); err == nil {
		t.Error("accepted an unknown output format")
	}

	var pgm bytes.Buffer
	if err := WritePGM(&pgm, GeneratePaperImage(Image1NestedRects128)); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if _, err := SegmentStream(context.Background(), bytes.NewReader(pgm.Bytes()), &want, Config{Threshold: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := SegmentStream(context.Background(), bytes.NewReader(pgm.Bytes()), &got,
		Config{Threshold: 10}, WithStreamSpoolDir("/nonexistent")); err != nil {
		t.Errorf("refused WithStreamSpoolDir(\"/nonexistent\"): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("WithStreamSpoolDir changed the output")
	}
}
