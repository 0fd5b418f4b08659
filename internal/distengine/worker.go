package distengine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/nodeprog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
	"regiongrow/internal/transport"
)

// errAborted is the worker-side sentinel for a coordinator abort frame (or
// a connection torn down by the coordinator, which means the same thing):
// the job is abandoned without an error of the worker's own.
var errAborted = errors.New("distengine: job aborted by coordinator")

// WorkerOptions tunes ServeWorkerOpts.
type WorkerOptions struct {
	// IdleTimeout bounds the wait for a connection's first frame (and the
	// gap between health probes on an idle connection). It is what lets a
	// draining worker exit: a coordinator that connected but never sent a
	// job cannot hold the drain hostage. Zero means the 60s default;
	// in-flight jobs are never subject to it.
	IdleTimeout time.Duration
}

func (o WorkerOptions) idle() time.Duration {
	if o.IdleTimeout <= 0 {
		return 60 * time.Second
	}
	return o.IdleTimeout
}

// ServeWorker accepts coordinator connections on l and serves one
// segmentation-band job per connection, each on its own goroutine so
// concurrent coordinators (e.g. two jobs of a serving pool sharing a
// cluster) cannot deadlock each other. It returns when the listener is
// closed, after in-flight jobs have drained: that is the worker's
// termination pin — finish the job being computed, refuse new ones,
// exit cleanly.
func ServeWorker(l transport.Listener) error {
	return ServeWorkerOpts(l, WorkerOptions{})
}

// ServeWorkerOpts is ServeWorker with explicit tuning.
func ServeWorkerOpts(l transport.Listener, opts WorkerOptions) error {
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			serveConn(conn, opts)
		}()
	}
}

// serveConn serves one accepted connection: health probes (ping→pong)
// until a job frame arrives, then exactly one job. Worker-side failures
// are reported to the coordinator as an error frame; aborts and dead
// connections end the job silently. The idle timeout bounds the TOTAL
// time until the first job frame — pings answered along the way do not
// extend it — so neither an idle connection nor a ping-only peer (e.g. a
// coordinator whose job frame was lost) can block a listener drain or
// hold the worker hostage.
func serveConn(conn transport.Conn, opts WorkerOptions) {
	lk := &link{c: conn, writeTimeout: frameWriteTimeout}
	idleDeadline := time.Now().Add(opts.idle()) //vet:timing idle-deadline arithmetic; never reaches wire payload bytes
	for {
		remain := time.Until(idleDeadline) //vet:timing idle-deadline arithmetic; never reaches wire payload bytes
		if remain <= 0 {
			return
		}
		f, err := conn.Recv(remain)
		if err != nil {
			return
		}
		switch frameType(f.Type) {
		case framePing:
			if lk.send(framePong, nil) != nil {
				return
			}
		case frameJob:
			j, err := decodeJob(f.Payload)
			if err != nil {
				_ = lk.send(frameError, []byte(err.Error()))
				return
			}
			lk.linkTimeout = j.linkTimeout()
			serveJob(j, lk)
			return
		case frameAbort:
			return
		default:
			_ = lk.send(frameError, []byte(fmt.Sprintf("expected job frame, got %d", f.Type)))
			return
		}
	}
}

// serveJob runs one decoded job, keeping heartbeats flowing to the
// coordinator for its whole duration (the coordinator's reads are
// deadline-bounded; the pings prove this worker alive while it computes).
func serveJob(j *job, lk *link) {
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		pingLoop(lk.c, j.heartbeat(), frameWriteTimeout, stop)
	}()
	res, err := runBand(j, lk)
	close(stop)
	hb.Wait()
	switch {
	case err == nil:
		_ = lk.send(frameResult, encodeResult(res))
	case errors.Is(err, errAborted):
		// Abandoned cleanly; nothing to send on a torn-down job.
	default:
		_ = lk.send(frameError, []byte(err.Error()))
	}
}

// link is the worker's half of the lockstep collective protocol and the
// node program's nodeprog.Collectives: write a request frame, block on the
// coordinator's response. An abort frame (or a closed or silent
// connection) surfaces as errAborted from whichever collective was
// pending.
type link struct {
	c            transport.Conn
	writeTimeout time.Duration
	linkTimeout  time.Duration
	seq          uint32
}

// send writes one frame under the per-frame write bound: a coordinator
// that stops draining the link surfaces as a timeout instead of blocking
// the worker forever. Sends are concurrency-safe (the heartbeat loop
// shares the conn), per the transport.Conn contract.
func (l *link) send(t frameType, payload []byte) error {
	return l.c.Send(transport.Frame{Type: byte(t), Payload: payload}, l.writeTimeout)
}

// recv returns the next protocol frame, skipping liveness pings. Each
// read is bounded by the link timeout; the coordinator's heartbeat keeps
// the link fed while a collective waits on other bands' compute, so only
// a genuinely dead coordinator can trip the bound.
func (l *link) recv() (frameType, []byte, error) {
	for {
		f, err := l.c.Recv(l.linkTimeout)
		if err != nil {
			return 0, nil, err
		}
		if ft := frameType(f.Type); ft == framePing || ft == framePong {
			continue
		}
		return frameType(f.Type), f.Payload, nil
	}
}

// roundTrip sends one collective frame and reads its response, which must
// be of type want or an abort.
func (l *link) roundTrip(t frameType, payload []byte, want frameType) ([]byte, error) {
	if err := l.send(t, payload); err != nil {
		return nil, errAborted
	}
	ft, resp, err := l.recv()
	if err != nil {
		return nil, errAborted
	}
	switch ft {
	case want:
		return resp, nil
	case frameAbort:
		return nil, errAborted
	default:
		return nil, fmt.Errorf("distengine: expected frame %d, got %d", want, ft)
	}
}

func (l *link) reduce(op byte, val int64) (int64, error) {
	l.seq++
	var e enc
	e.b = append(e.b, op)
	e.u32(l.seq)
	e.i64(val)
	resp, err := l.roundTrip(frameReduce, e.b, frameReduceResult)
	if err != nil {
		return 0, err
	}
	d := dec{b: resp}
	v := d.i64()
	return v, d.err
}

func (l *link) AllReduceMax(val int) (int, error) {
	v, err := l.reduce(opMax, int64(val))
	return int(v), err
}

func (l *link) AllReduceSum(val int) (int, error) {
	v, err := l.reduce(opSum, int64(val))
	return int(v), err
}

// AllGather contributes data and returns the rank-order concatenation of
// every rank's contribution.
func (l *link) AllGather(data []int32) ([]int32, error) {
	l.seq++
	var e enc
	e.u32(l.seq)
	e.i32s(data)
	resp, err := l.roundTrip(frameGather, e.b, frameGatherResult)
	if err != nil {
		return nil, err
	}
	d := dec{b: resp}
	out := d.i32s()
	return out, d.err
}

// Exchange routes outbound[r] to each rank r and returns the payloads
// addressed to this rank in ascending source order.
func (l *link) Exchange(outbound map[int][]int32) ([][]int32, error) {
	_, datas, err := l.exchange(outbound)
	return datas, err
}

// Neighbours sends the boundary strips as one exchange frame, which
// carries them in ascending rank order whatever order they are listed in.
func (l *link) Neighbours(out []nodeprog.Strip) ([][]int32, error) {
	outbound := make(map[int][]int32, len(out))
	for _, s := range out {
		outbound[s.Peer] = s.Data
	}
	srcs, datas, err := l.exchange(outbound)
	if err != nil {
		return nil, err
	}
	in := make([][]int32, len(out))
	for i, src := range srcs {
		k := slices.IndexFunc(out, func(s nodeprog.Strip) bool { return s.Peer == int(src) })
		if k < 0 {
			return nil, fmt.Errorf("distengine: boundary strip from non-neighbour rank %d", src)
		}
		in[k] = datas[i]
	}
	return in, nil
}

// exchange routes outbound[r] to each rank r and returns the payloads
// addressed to this rank as (src, data) pairs in ascending source order.
func (l *link) exchange(outbound map[int][]int32) (srcs []int32, datas [][]int32, err error) {
	l.seq++
	var e enc
	e.u32(l.seq)
	dests := make([]int, 0, len(outbound))
	for d := range outbound {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, dst := range dests {
		e.i32(int32(dst))
		e.i32s(outbound[dst])
	}
	resp, err := l.roundTrip(frameExchange, e.b, frameExchangeResult)
	if err != nil {
		return nil, nil, err
	}
	d := dec{b: resp}
	flat := d.i32s()
	if d.err != nil {
		return nil, nil, d.err
	}
	g := dec32{b: flat}
	for !g.empty() {
		src := g.next()
		cnt := int(g.next())
		data := g.take(cnt)
		if g.err != nil {
			return nil, nil, g.err
		}
		srcs = append(srcs, src)
		datas = append(datas, data)
	}
	return srcs, datas, nil
}

// Emit streams one stage event to the coordinator (fire-and-forget; the
// node program calls it on rank 0 only).
func (l *link) Emit(ev core.StageEvent) error {
	if err := l.send(frameEvent, encodeEvent(ev)); err != nil {
		return errAborted
	}
	return nil
}

// Charge and Phase are the node program's cost-model hooks; real workers
// have no simulated clock to feed.
func (l *link) Charge(int)                {}
func (l *link) Phase(nodeprog.Phase, int) {}

var _ nodeprog.Collectives = (*link)(nil)

// runBand executes one job: the node program on the worker's band, which
// is row j.Rank of a one-column grid whose rows are the job's bands.
func runBand(j *job, lk *link) (*nodeprog.Result, error) {
	return nodeprog.Run(lk, nodeprog.Node{
		Grid:      nodeprog.Grid{XStarts: []int{0, j.W}, YStarts: j.BandStarts},
		Rank:      j.Rank,
		Tile:      &pixmap.Image{W: j.W, H: j.BandStarts[j.Rank+1] - j.BandStarts[j.Rank], Pix: j.Pix},
		Cap:       j.Cap,
		Threshold: j.Threshold,
		Tie:       rag.TiePolicy(j.Tie),
		Seed:      j.Seed,
	})
}
