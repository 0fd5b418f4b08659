package distengine

import "testing"

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

// TestWorkerResultRoundTrip pins the result frame encoding.
func TestWorkerResultRoundTrip(t *testing.T) {
	in := &workerResult{
		SplitIterations: 4, MergeIterations: 9, Squares: 100, Forced: 1,
		SplitWallNanos: 12345, MergesPerIter: []int32{5, 3, 1},
		Labels: []int32{0, 0, 2, 2},
	}
	out, err := decodeWorkerResult(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.SplitIterations != 4 || out.MergeIterations != 9 || out.Squares != 100 ||
		out.Forced != 1 || out.SplitWallNanos != 12345 ||
		len(out.MergesPerIter) != 3 || len(out.Labels) != 4 || out.Labels[2] != 2 {
		t.Fatalf("decoded %+v", out)
	}
}
