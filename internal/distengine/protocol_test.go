package distengine

import (
	"errors"
	"reflect"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/nodeprog"
	"regiongrow/internal/rag"
)

// TestJobRoundTrip pins the job frame encoding.
func TestJobRoundTrip(t *testing.T) {
	in := &job{
		Rank: 1, Workers: 3, W: 4, H: 6, Cap: 2, Threshold: 10,
		Tie: 2, Seed: 99, BandStarts: []int{0, 2, 4, 6},
		Pix: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
	out, err := decodeJob(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Rank != in.Rank || out.Workers != in.Workers || out.W != in.W ||
		out.H != in.H || out.Cap != in.Cap || out.Threshold != in.Threshold ||
		out.Tie != in.Tie || out.Seed != in.Seed {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	if len(out.BandStarts) != 4 || out.BandStarts[2] != 4 {
		t.Fatalf("band starts %v", out.BandStarts)
	}
	if string(out.Pix) != string(in.Pix) {
		t.Fatalf("pixels %v", out.Pix)
	}
}

// TestDecodeJobRejectsMalformed: truncated or inconsistent job frames are
// errors, not panics or silent misparses.
func TestDecodeJobRejectsMalformed(t *testing.T) {
	good := (&job{
		Rank: 0, Workers: 1, W: 2, H: 2, Cap: 1, Threshold: 1,
		BandStarts: []int{0, 2}, Pix: []byte{0, 1, 2, 3},
	}).encode()
	if _, err := decodeJob(good); err != nil {
		t.Fatalf("good frame rejected: %v", err)
	}
	for n := 0; n < len(good); n += 7 {
		if _, err := decodeJob(good[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	bad := append([]byte(nil), good...)
	bad[3]++ // wrong protocol version
	if _, err := decodeJob(bad); err == nil {
		t.Error("wrong protocol version accepted")
	}
}

// TestDecodeJobRejectsInvalidConfig: a well-formed frame carrying a tie
// policy no engine knows is refused at decode, so it cannot panic a
// worker.
func TestDecodeJobRejectsInvalidConfig(t *testing.T) {
	frame := (&job{
		Rank: 0, Workers: 1, W: 2, H: 2, Cap: 1, Threshold: 1, Tie: 7,
		BandStarts: []int{0, 2}, Pix: []byte{0, 1, 2, 3},
	}).encode()
	if _, err := decodeJob(frame); !errors.Is(err, core.ErrInvalidConfig) {
		t.Fatalf("tie 7 frame: err = %v, want core.ErrInvalidConfig", err)
	}
}

// TestWorkerResultRoundTrip pins the result frame encoding.
func TestWorkerResultRoundTrip(t *testing.T) {
	in := &nodeprog.Result{
		SplitIterations: 4, Squares: 100, SplitWall: 12345,
		Merge:  rag.MergeStats{Iterations: 9, ForcedResolutions: 1, MergesPerIter: []int{5, 3, 1}},
		Labels: []int32{0, 0, 2, 2},
	}
	out, err := decodeResult(encodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
}

// TestEventRoundTrip pins the event frame encoding for every stage event
// kind, with every field set.
func TestEventRoundTrip(t *testing.T) {
	for k := core.EventSplitStart; k <= core.EventMergeDone; k++ {
		in := core.StageEvent{Kind: k, Iteration: 7, Merges: 11, Iterations: 13, Squares: 1735, Regions: 42}
		p := encodeEvent(in)
		if len(p) != 24 {
			t.Fatalf("%v: %d payload bytes, want 24", k, len(p))
		}
		out, err := decodeEvent(p)
		if err != nil || out != in {
			t.Fatalf("%v: decoded %+v, %v; want %+v", k, out, err, in)
		}
		if _, err := decodeEvent(p[:len(p)-1]); err == nil {
			t.Fatalf("%v: truncated event accepted", k)
		}
	}
}
