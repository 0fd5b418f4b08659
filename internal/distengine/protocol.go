package distengine

import (
	"encoding/binary"
	"fmt"
	"time"

	"regiongrow/internal/transport"
)

// ProtocolVersion is bumped whenever a frame layout changes; a worker
// refuses a job whose version differs rather than mis-parsing it.
// Version 2 added ping/pong liveness frames and the job's heartbeat and
// link-timeout fields.
const ProtocolVersion = 2

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

func (e *enc) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i32(v)
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

func (d *dec) i32s() []int32 {
	n := int(d.u32())
	if d.err != nil || n < 0 || len(d.b) < 4*n {
		d.fail()
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
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
	var e enc
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

// workerResult is the decoded frameResult payload.
type workerResult struct {
	SplitIterations int
	MergeIterations int
	Squares         int
	Forced          int
	SplitWallNanos  int64
	MergesPerIter   []int32
	// Labels are the final per-pixel labels of the worker's band.
	Labels []int32
}

func (r *workerResult) encode() []byte {
	var e enc
	e.u32(uint32(r.SplitIterations))
	e.u32(uint32(r.MergeIterations))
	e.u32(uint32(r.Squares))
	e.u32(uint32(r.Forced))
	e.i64(r.SplitWallNanos)
	e.i32s(r.MergesPerIter)
	e.i32s(r.Labels)
	return e.b
}

func decodeWorkerResult(p []byte) (*workerResult, error) {
	d := dec{b: p}
	r := &workerResult{
		SplitIterations: int(d.u32()),
		MergeIterations: int(d.u32()),
		Squares:         int(d.u32()),
		Forced:          int(d.u32()),
		SplitWallNanos:  d.i64(),
		MergesPerIter:   d.i32s(),
		Labels:          d.i32s(),
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// event is the decoded frameEvent payload — a flattened core.StageEvent.
type event struct {
	Kind, Iteration, Merges, Iterations, Squares, Regions int32
}

func (ev event) encode() []byte {
	var e enc
	for _, v := range [...]int32{ev.Kind, ev.Iteration, ev.Merges, ev.Iterations, ev.Squares, ev.Regions} {
		e.i32(v)
	}
	return e.b
}

func decodeEvent(p []byte) (event, error) {
	d := dec{b: p}
	ev := event{
		Kind: d.i32(), Iteration: d.i32(), Merges: d.i32(),
		Iterations: d.i32(), Squares: d.i32(), Regions: d.i32(),
	}
	return ev, d.err
}
