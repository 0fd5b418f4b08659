package distengine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
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

// TestI32sMatchesPerWordReference pins the bulk int32 codec to the
// per-word one it replaced: a length prefix, then one AppendUint32 per
// value, appended after whatever the buffer already holds. Decoding reads
// the values back with Uint32, and a payload cut anywhere after its
// length prefix, or one declaring more words than it carries, fails the
// decoder instead of returning a short slice.
func TestI32sMatchesPerWordReference(t *testing.T) {
	for _, vs := range [][]int32{{}, {-1}, {1, -2, 3}, {0, 1<<31 - 1, -1 << 31, 7, -8}} {
		head := []byte{0xAB, 0xCD}
		ref := binary.BigEndian.AppendUint32(bytes.Clone(head), uint32(len(vs)))
		for _, v := range vs {
			ref = binary.BigEndian.AppendUint32(ref, uint32(v))
		}
		e := enc{b: bytes.Clone(head)}
		e.i32s(vs)
		if !bytes.Equal(e.b, ref) {
			t.Fatalf("%v: encoded % x, want % x", vs, e.b, ref)
		}

		body := ref[len(head):]
		want := make([]int32, 0, len(vs))
		for p := body[4:]; len(p) > 0; p = p[4:] {
			want = append(want, int32(binary.BigEndian.Uint32(p)))
		}
		d := dec{b: body}
		if got := d.i32s(); d.err != nil || !slices.Equal(got, want) || len(d.b) != 0 {
			t.Fatalf("%v: decoded %v (err %v, %d bytes left), want %v", vs, got, d.err, len(d.b), want)
		}

		for n := 0; n < len(body); n++ {
			d := dec{b: body[:n]}
			if got := d.i32s(); d.err == nil {
				t.Fatalf("%v: payload cut to %d bytes decoded as %v", vs, n, got)
			}
		}
		lying := binary.BigEndian.AppendUint32(nil, uint32(len(vs)+1))
		d = dec{b: append(lying, body[4:]...)}
		if got := d.i32s(); d.err == nil {
			t.Fatalf("%v: length prefix one too large decoded as %v", vs, got)
		}
	}
}

// TestRequestRoundTrip pins the collective request frames: each decoder
// reads back what its encoder wrote, exchange groups as the hub's flat
// (dest, len, payload...) list in ascending dest order, and a payload cut
// anywhere but on a whole exchange group is an error.
func TestRequestRoundTrip(t *testing.T) {
	type decoded struct {
		kind roundKind
		seq  uint32
		val  int64
		data []int32
	}
	reduce := func(p []byte) (decoded, error) {
		k, seq, v, err := decodeReduce(p)
		return decoded{kind: k, seq: seq, val: v}, err
	}
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) (decoded, error)
		want    decoded
		// wholeCuts are the shorter lengths that still decode: the
		// sequence number and a prefix of the groups.
		wholeCuts []int
	}{
		{"reduce max", encodeReduce(opMax, 7, -3), reduce, decoded{kind: roundReduceMax, seq: 7, val: -3}, nil},
		{"reduce sum", encodeReduce(opSum, 8, 1<<40), reduce, decoded{kind: roundReduceSum, seq: 8, val: 1 << 40}, nil},
		{"gather", encodeGather(9, []int32{3, 1, 4}), func(p []byte) (decoded, error) {
			seq, data, err := decodeGather(p)
			return decoded{seq: seq, data: data}, err
		}, decoded{seq: 9, data: []int32{3, 1, 4}}, nil},
		{"exchange", encodeExchange(10, map[int][]int32{2: {7, -1, 9}, 0: {}, 1: {5}}), func(p []byte) (decoded, error) {
			seq, routed, err := decodeExchange(p)
			return decoded{seq: seq, data: routed}, err
		}, decoded{seq: 10, data: []int32{0, 0, 1, 1, 5, 2, 3, 7, -1, 9}}, []int{4, 12, 24}},
		{"exchange-max", encodeExchangeMax(11, 1, map[int][]int32{1: {4, 6}}), func(p []byte) (decoded, error) {
			seq, v, routed, err := decodeExchangeMax(p)
			return decoded{seq: seq, val: v, data: routed}, err
		}, decoded{seq: 11, val: 1, data: []int32{1, 2, 4, 6}}, []int{12}},
	}
	for _, tc := range cases {
		got, err := tc.decode(tc.payload)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: decoded %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
		for n := 0; n < len(tc.payload); n++ {
			if got, err := tc.decode(tc.payload[:n]); (err == nil) != slices.Contains(tc.wholeCuts, n) {
				t.Fatalf("%s: payload cut to %d bytes decoded as %+v, %v", tc.name, n, got, err)
			}
		}
	}
	if _, _, _, err := decodeReduce([]byte{9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}); err == nil {
		t.Fatal("reduce with an unknown operator accepted")
	}
}

// TestDeliveredRoundTrip pins the two routing results: the hub's flat
// (src, len, payload...) groups for a rank come back as its sources and
// payloads, after the maximum on an exchange-max; a cut payload or a
// group that overruns the list is an error.
func TestDeliveredRoundTrip(t *testing.T) {
	routed := []int32{0, 2, 7, 8, 2, 0, 3, 1, -5}
	wantSrcs, wantDatas := []int32{0, 2, 3}, [][]int32{{7, 8}, {}, {-5}}
	var e enc
	e.i32s(routed)
	srcs, datas, err := decodeExchangeResult(e.b)
	if err != nil || !reflect.DeepEqual(srcs, wantSrcs) || !reflect.DeepEqual(datas, wantDatas) {
		t.Fatalf("exchange result decoded %v %v, %v; want %v %v", srcs, datas, err, wantSrcs, wantDatas)
	}
	p := encodeExchangeMaxResult(4, routed)
	m, datas, err := decodeExchangeMaxResult(p)
	if err != nil || m != 4 || !reflect.DeepEqual(datas, wantDatas) {
		t.Fatalf("exchange-max result decoded %d %v, %v; want 4 %v", m, datas, err, wantDatas)
	}
	for n := 0; n < len(p); n++ {
		if _, datas, err := decodeExchangeMaxResult(p[:n]); err == nil {
			t.Fatalf("exchange-max result cut to %d bytes decoded as %v", n, datas)
		}
	}
	var bad enc
	bad.i32s([]int32{0, 5, 1})
	if _, _, err := decodeExchangeResult(bad.b); err == nil {
		t.Fatal("exchange result whose group overruns it accepted")
	}
}
