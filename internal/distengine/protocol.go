package distengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/nodeprog"
	"regiongrow/internal/rag"
	"regiongrow/internal/transport"
)

// ProtocolVersion is bumped whenever a frame layout changes; a worker
// refuses a job whose version differs rather than mis-parsing it.
// Version 2 added ping/pong liveness frames and the job's heartbeat and
// link-timeout fields. Version 3 added the exchange-max frames, which
// carry a merge round's head all-reduce and its suitor exchange in one
// round trip, so a merge round sends three request frames, not four.
const ProtocolVersion = 3

// frameWriteTimeout bounds every frame write on both ends of a
// connection. A write only blocks when the peer stops draining its
// link — a healthy peer always reads, however long its own compute
// takes — so the deadline bounds peer failure, not job length.
const frameWriteTimeout = 30 * time.Second

// defaultHeartbeatInterval and defaultLinkTimeout are the liveness
// defaults both sides fall back to. Each peer sends a ping every
// interval while a job runs, and bounds every read by the link timeout;
// the interval is kept a small fraction of the timeout so a healthy but
// busy peer can never be mistaken for a dead one.
const (
	defaultHeartbeatInterval = 10 * time.Second
	defaultLinkTimeout       = 30 * time.Second
)

// frameType tags one length-prefixed frame on a coordinator↔worker
// connection. The protocol is deliberately tiny: one job frame down, then
// lockstep collective request/response pairs (the worker initiates, the
// coordinator answers once every worker of the job has contributed),
// asynchronous event frames up from rank 0, and a terminal result — or an
// abort injected by the coordinator at any point.
type frameType byte

const (
	// frameJob (coordinator → worker) opens a job: geometry, config, and
	// the worker's band of pixels.
	frameJob frameType = iota + 1
	// frameReduce (worker → coordinator) contributes one int64 to an
	// all-reduce; frameReduceResult carries the combined value back.
	frameReduce
	frameReduceResult
	// frameGather (worker → coordinator) contributes an []int32 to an
	// all-gather; frameGatherResult carries the rank-order concatenation.
	frameGather
	frameGatherResult
	// frameExchange (worker → coordinator) routes payloads to peer ranks;
	// frameExchangeResult delivers the payloads addressed to this rank, in
	// ascending source-rank order.
	frameExchange
	frameExchangeResult
	// frameEvent (worker → coordinator, rank 0 only) streams one stage
	// event; the coordinator forwards it to the run's observer.
	frameEvent
	// frameResult (worker → coordinator) ends a successful job: stats and
	// the worker's band of final labels.
	frameResult
	// frameAbort (coordinator → worker) cancels the job; the worker
	// abandons it and closes the connection.
	frameAbort
	// frameError (worker → coordinator) reports a worker-side failure; the
	// coordinator aborts the whole job with the carried message.
	frameError
	// framePing is the liveness beacon both sides emit while a job runs:
	// it carries no payload, expects no reply mid-job, and is skipped by
	// every reader (and excluded from comm counters). On an idle worker
	// connection it doubles as a health probe, answered with framePong.
	framePing
	// framePong answers a framePing received outside a job — the worker
	// half of the coordinator's health-probe round trip.
	framePong
	// frameExchangeMax (worker → coordinator) is a merge round's head
	// all-reduce-max fused with its suitor exchange: one int64 to combine
	// and payloads to route. frameExchangeMaxResult carries the maximum
	// and the payloads addressed to this rank, in ascending source-rank
	// order.
	frameExchangeMax
	frameExchangeMaxResult
)

// Reduction operators carried in frameReduce payloads.
const (
	opMax byte = iota + 1
	opSum
)

// Frame transport (length-prefixed type+payload framing, the MaxFrame
// payload bound, and all socket/channel mechanics) lives in
// internal/transport; this package only defines the frame types and
// payload layouts that ride on it.

// enc is an append-only big-endian payload builder.
type enc struct{ b []byte }

func (e *enc) u32(v uint32)   { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) i32(v int32)    { e.u32(uint32(v)) }
func (e *enc) u64(v uint64)   { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)    { e.u64(uint64(v)) }
func (e *enc) bytes(p []byte) { e.b = append(e.b, p...) }

// i32s appends vs with its length prefix, growing the buffer once and
// filling the words in place.
func (e *enc) i32s(vs []int32) {
	e.b = slices.Grow(e.b, 4+4*len(vs))
	e.u32(uint32(len(vs)))
	n := len(e.b)
	e.b = e.b[:n+4*len(vs)]
	tail := e.b[n:]
	for i, v := range vs {
		binary.BigEndian.PutUint32(tail[4*i:], uint32(v))
	}
}

// dec is a sequential big-endian payload reader; the first malformed read
// latches an error and zeroes every subsequent read.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("distengine: truncated frame payload")
	}
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) i32() int32 { return int32(d.u32()) }

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) bytes(n int) []byte {
	if d.err != nil || n < 0 || len(d.b) < n {
		d.fail()
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// i32s reads a length-prefixed []int32, checking the declared length
// against the payload once.
func (d *dec) i32s() []int32 {
	n := int(d.u32())
	if d.err != nil || n < 0 || len(d.b)/4 < n {
		d.fail()
		return nil
	}
	out := make([]int32, n)
	putWords(out, d.b)
	d.b = d.b[4*n:]
	return out
}

// putWords decodes the first len(out) big-endian words of p into out.
func putWords(out []int32, p []byte) {
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(p[4*i:]))
	}
}

// groups appends out's (dest, payload) groups in ascending dest order:
// each group is the destination, then the length-prefixed payload.
func (e *enc) groups(out map[int][]int32) {
	dests := slices.Sorted(maps.Keys(out))
	n := 0
	for _, dst := range dests {
		n += 8 + 4*len(out[dst])
	}
	e.b = slices.Grow(e.b, n)
	for _, dst := range dests {
		e.i32(int32(dst))
		e.i32s(out[dst])
	}
}

// groups reads the rest of the payload as (dest, len, payload...) groups,
// the flat form the hub routes. On the wire a group is the same list of
// words, so the rest decodes in one pass; a second pass over the group
// heads checks that the groups tile it exactly.
func (d *dec) groups() []int32 {
	if d.err != nil || len(d.b)%4 != 0 {
		d.fail()
		return nil
	}
	out := make([]int32, len(d.b)/4)
	putWords(out, d.b)
	d.b = d.b[len(d.b):]
	if eachGroup(out, func(int32, []int32) error { return nil }) != nil {
		d.fail()
		return nil
	}
	return out
}

// delivered reads the rest of an exchange result: the length-prefixed
// (src, len, payload...) groups addressed to this rank, split into their
// sources and payloads.
func (d *dec) delivered() (srcs []int32, datas [][]int32) {
	flat := d.i32s()
	err := eachGroup(flat, func(src int32, data []int32) error {
		srcs = append(srcs, src)
		datas = append(datas, data)
		return nil
	})
	if err != nil {
		d.fail()
		return nil, nil
	}
	return srcs, datas
}

// errGroupOverrun reports a flat group list whose groups do not tile it.
var errGroupOverrun = errors.New("distengine: truncated exchange group")

// eachGroup calls fn on the (key, payload) groups of a flat
// (key, len, payload...) list in order, and fails with errGroupOverrun
// if they do not tile the list exactly, or with fn's first error.
func eachGroup(flat []int32, fn func(key int32, data []int32) error) error {
	for i := 0; i < len(flat); {
		if len(flat)-i < 2 || flat[i+1] < 0 || int(flat[i+1]) > len(flat)-i-2 {
			return errGroupOverrun
		}
		end := i + 2 + int(flat[i+1])
		if err := fn(flat[i], flat[i+2:end:end]); err != nil {
			return err
		}
		i = end
	}
	return nil
}

// job is the decoded frameJob payload: everything a worker needs to run
// its band of one segmentation.
type job struct {
	Rank, Workers int
	W, H          int
	Cap           int // effective split square cap (pre-resolved)
	Threshold     int
	Tie           int32
	Seed          uint64
	// HeartbeatMillis and LinkTimeoutMillis carry the coordinator's
	// liveness tuning to the worker so both sides of a link agree on the
	// ping cadence and the silent-peer bound; zero means the default.
	HeartbeatMillis   uint32
	LinkTimeoutMillis uint32
	// BandStarts has Workers+1 entries: band r owns rows
	// [BandStarts[r], BandStarts[r+1]). Every boundary is a multiple of
	// Cap (except the last, which is H), so no split square crosses one.
	BandStarts []int
	// Pix holds the worker's own band rows, (BandStarts[r+1]-BandStarts[r])×W
	// bytes.
	Pix []byte
}

func (j *job) encode() []byte {
	e := enc{b: make([]byte, 0, 14*4+4*len(j.BandStarts)+len(j.Pix))}
	e.u32(ProtocolVersion)
	e.u32(uint32(j.Rank))
	e.u32(uint32(j.Workers))
	e.u32(uint32(j.W))
	e.u32(uint32(j.H))
	e.u32(uint32(j.Cap))
	e.u32(uint32(j.Threshold))
	e.i32(j.Tie)
	e.u64(j.Seed)
	e.u32(j.HeartbeatMillis)
	e.u32(j.LinkTimeoutMillis)
	e.u32(uint32(len(j.BandStarts)))
	for _, s := range j.BandStarts {
		e.u32(uint32(s))
	}
	e.u32(uint32(len(j.Pix)))
	e.bytes(j.Pix)
	return e.b
}

func decodeJob(p []byte) (*job, error) {
	d := dec{b: p}
	if v := d.u32(); v != ProtocolVersion {
		return nil, fmt.Errorf("distengine: protocol version %d, want %d", v, ProtocolVersion)
	}
	j := &job{}
	j.Rank = int(d.u32())
	j.Workers = int(d.u32())
	j.W = int(d.u32())
	j.H = int(d.u32())
	j.Cap = int(d.u32())
	j.Threshold = int(d.u32())
	j.Tie = d.i32()
	j.Seed = d.u64()
	j.HeartbeatMillis = d.u32()
	j.LinkTimeoutMillis = d.u32()
	n := int(d.u32())
	if d.err == nil && (n != j.Workers+1 || n > transport.MaxFrame/4) {
		return nil, fmt.Errorf("distengine: %d band boundaries for %d workers", n, j.Workers)
	}
	j.BandStarts = make([]int, n)
	for i := range j.BandStarts {
		j.BandStarts[i] = int(d.u32())
	}
	j.Pix = d.bytes(int(d.u32()))
	if d.err != nil {
		return nil, d.err
	}
	if j.Rank < 0 || j.Rank >= j.Workers {
		return nil, fmt.Errorf("distengine: rank %d of %d workers", j.Rank, j.Workers)
	}
	if err := (core.Config{Threshold: j.Threshold, Tie: rag.TiePolicy(j.Tie), MaxSquare: j.Cap}).Check(); err != nil {
		return nil, fmt.Errorf("distengine: job frame: %w", err)
	}
	rows := j.BandStarts[j.Rank+1] - j.BandStarts[j.Rank]
	if rows < 0 || len(j.Pix) != rows*j.W {
		return nil, fmt.Errorf("distengine: band of %d rows × width %d but %d pixels", rows, j.W, len(j.Pix))
	}
	return j, nil
}

// heartbeat returns the job's ping cadence, defaulted when unset.
func (j *job) heartbeat() time.Duration {
	if j.HeartbeatMillis == 0 {
		return defaultHeartbeatInterval
	}
	return time.Duration(j.HeartbeatMillis) * time.Millisecond
}

// linkTimeout returns the job's silent-peer bound, defaulted when unset.
func (j *job) linkTimeout() time.Duration {
	if j.LinkTimeoutMillis == 0 {
		return defaultLinkTimeout
	}
	return time.Duration(j.LinkTimeoutMillis) * time.Millisecond
}

// encodeResult is the frameResult payload: r's agreed counters, its
// split wall time in nanoseconds, the merges of every round and the
// band's final labels.
func encodeResult(r *nodeprog.Result) []byte {
	e := enc{b: make([]byte, 0, 7*4+4*len(r.Merge.MergesPerIter)+4+4*len(r.Labels))}
	for _, v := range [...]int{r.SplitIterations, r.Merge.Iterations, r.Squares, r.Merge.ForcedResolutions} {
		e.u32(uint32(v))
	}
	e.i64(int64(r.SplitWall))
	e.u32(uint32(len(r.Merge.MergesPerIter)))
	for _, m := range r.Merge.MergesPerIter {
		e.i32(int32(m))
	}
	e.i32s(r.Labels)
	return e.b
}

func decodeResult(p []byte) (*nodeprog.Result, error) {
	d := dec{b: p}
	r := &nodeprog.Result{SplitIterations: int(d.u32())}
	r.Merge.Iterations = int(d.u32())
	r.Squares = int(d.u32())
	r.Merge.ForcedResolutions = int(d.u32())
	r.SplitWall = time.Duration(d.i64())
	merges := d.i32s()
	r.Merge.MergesPerIter = make([]int, len(merges))
	for i, m := range merges {
		r.Merge.MergesPerIter[i] = int(m)
	}
	r.Labels = d.i32s()
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// encodeEvent is the frameEvent payload: ev's fields as int32s, in
// declaration order.
func encodeEvent(ev core.StageEvent) []byte {
	var e enc
	for _, v := range [...]int{int(ev.Kind), ev.Iteration, ev.Merges, ev.Iterations, ev.Squares, ev.Regions} {
		e.i32(int32(v))
	}
	return e.b
}

func decodeEvent(p []byte) (core.StageEvent, error) {
	d := dec{b: p}
	ev := core.StageEvent{
		Kind: core.EventKind(d.i32()), Iteration: int(d.i32()), Merges: int(d.i32()),
		Iterations: int(d.i32()), Squares: int(d.i32()), Regions: int(d.i32()),
	}
	return ev, d.err
}

// encodeReduce is the frameReduce payload: the operator, the sequence
// number and the contribution.
func encodeReduce(op byte, seq uint32, val int64) []byte {
	e := enc{b: make([]byte, 0, 13)}
	e.b = append(e.b, op)
	e.u32(seq)
	e.i64(val)
	return e.b
}

// decodeReduce reads a frameReduce payload, naming its operator by the
// hub round it joins.
func decodeReduce(p []byte) (kind roundKind, seq uint32, val int64, err error) {
	d := dec{b: p}
	op := d.bytes(1)
	seq, val = d.u32(), d.i64()
	if d.err != nil {
		return 0, 0, 0, d.err
	}
	switch op[0] {
	case opMax:
		return roundReduceMax, seq, val, nil
	case opSum:
		return roundReduceSum, seq, val, nil
	}
	return 0, 0, 0, fmt.Errorf("distengine: unknown reduce op %d", op[0])
}

// encodeGather is the frameGather payload: the sequence number and the
// contribution.
func encodeGather(seq uint32, data []int32) []byte {
	e := enc{b: make([]byte, 0, 8+4*len(data))}
	e.u32(seq)
	e.i32s(data)
	return e.b
}

func decodeGather(p []byte) (seq uint32, data []int32, err error) {
	d := dec{b: p}
	seq = d.u32()
	data = d.i32s()
	return seq, data, d.err
}

// encodeExchange is the frameExchange payload: the sequence number, then
// out's groups in ascending dest order.
func encodeExchange(seq uint32, out map[int][]int32) []byte {
	var e enc
	e.u32(seq)
	e.groups(out)
	return e.b
}

// decodeExchange reads a frameExchange payload, its groups as one flat
// (dest, len, payload...) list.
func decodeExchange(p []byte) (seq uint32, routed []int32, err error) {
	d := dec{b: p}
	seq = d.u32()
	routed = d.groups()
	return seq, routed, d.err
}

// encodeExchangeMax is the frameExchangeMax payload: the sequence number,
// the contribution to the maximum, then out's groups in ascending dest
// order.
func encodeExchangeMax(seq uint32, val int64, out map[int][]int32) []byte {
	var e enc
	e.u32(seq)
	e.i64(val)
	e.groups(out)
	return e.b
}

// decodeExchangeMax reads a frameExchangeMax payload, its groups as one
// flat (dest, len, payload...) list.
func decodeExchangeMax(p []byte) (seq uint32, val int64, routed []int32, err error) {
	d := dec{b: p}
	seq, val = d.u32(), d.i64()
	routed = d.groups()
	return seq, val, routed, d.err
}

// encodeExchangeMaxResult is the frameExchangeMaxResult payload: the
// maximum, then the length-prefixed groups routed to the rank.
func encodeExchangeMaxResult(max int64, routed []int32) []byte {
	e := enc{b: make([]byte, 0, 12+4*len(routed))}
	e.i64(max)
	e.i32s(routed)
	return e.b
}

// decodeExchangeResult reads a frameExchangeResult payload: the payloads
// addressed to this rank and their sources, in ascending source order.
func decodeExchangeResult(p []byte) (srcs []int32, datas [][]int32, err error) {
	d := dec{b: p}
	srcs, datas = d.delivered()
	return srcs, datas, d.err
}

// decodeExchangeMaxResult reads a frameExchangeMaxResult payload.
func decodeExchangeMaxResult(p []byte) (max int64, datas [][]int32, err error) {
	d := dec{b: p}
	max = d.i64()
	_, datas = d.delivered()
	return max, datas, d.err
}
