package distengine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/nodeprog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/transport"
)

// ErrWorkerLost classifies a job failure as transport-level: a worker
// died, stalled past the link timeout, or its connection broke. Failures
// wrapping it are retryable — the engine re-runs the job on the workers
// that still answer a health probe. Protocol failures (malformed frames,
// a worker-reported error, a desynchronized collective) do not wrap it
// and abort the job for good.
var ErrWorkerLost = errors.New("distengine: worker lost")

// ErrNoWorkers reports that a retry found no healthy worker to re-run
// the job on (or that the engine has no members at all).
var ErrNoWorkers = errors.New("distengine: no healthy workers")

// Tuning bundles the engine's liveness and retry knobs. The zero value
// of any field means its default; production defaults are deliberately
// lax (heartbeats every 10s, a 30s silent-link bound) so they can never
// distort a healthy job, while tests dial them down to milliseconds.
type Tuning struct {
	// DialTimeout bounds each worker dial (default 10s).
	DialTimeout time.Duration
	// HeartbeatInterval is the ping cadence both sides keep up while a
	// job runs (default 10s). It must stay well under LinkTimeout.
	HeartbeatInterval time.Duration
	// LinkTimeout bounds every read on a job connection: a peer silent
	// for this long — no frames, no pings — is declared lost (default 30s).
	LinkTimeout time.Duration
	// WriteTimeout bounds every frame write (default 30s); only a peer
	// that stopped draining the link can make a write block.
	WriteTimeout time.Duration
	// ProbeTimeout bounds each step of a health probe's dial+ping+pong
	// round trip (default 2s).
	ProbeTimeout time.Duration
	// MaxAttempts caps how many times a job runs end to end, the first
	// attempt included (default 3; minimum 1).
	MaxAttempts int
}

func (t Tuning) withDefaults() Tuning {
	if t.DialTimeout <= 0 {
		t.DialTimeout = 10 * time.Second
	}
	if t.HeartbeatInterval <= 0 {
		t.HeartbeatInterval = defaultHeartbeatInterval
	}
	if t.LinkTimeout <= 0 {
		t.LinkTimeout = defaultLinkTimeout
	}
	if t.WriteTimeout <= 0 {
		t.WriteTimeout = frameWriteTimeout
	}
	if t.ProbeTimeout <= 0 {
		t.ProbeTimeout = 2 * time.Second
	}
	if t.MaxAttempts < 1 {
		t.MaxAttempts = 3
	}
	return t
}

// Engine is the coordinator side of the distributed engine: it
// decomposes the image into horizontal bands, ships one band to each
// worker over the configured transport, serves the collectives their
// merge protocol needs, and assembles the final segmentation. Labels
// are byte-identical to the sequential engine's for every Config and
// every worker count — which is exactly what makes failure recovery
// sound: re-running a job across fewer workers re-bands the image but
// cannot change a single output byte.
//
// Membership is dynamic: Add/Remove/SetMembers take effect at the next
// job, and a worker lost mid-job triggers a retry across the members
// that still answer a health probe.
type Engine struct {
	tr  transport.Transport
	tun Tuning

	mu      sync.Mutex
	members []string
}

// New returns a coordinator over TCP worker addresses. A job uses
// min(members, image-rows/cap) workers — bands are at least one split
// cap tall, so tiny images use fewer workers than the cluster has.
func New(addrs []string) *Engine {
	return NewOver(transport.TCP{}, addrs)
}

// NewOver returns a coordinator over an explicit transport — TCP for
// real clusters, transport.Mem for in-process workers, or a fault-
// injecting wrapper in tests.
func NewOver(tr transport.Transport, addrs []string) *Engine {
	e := &Engine{tr: tr, tun: Tuning{}.withDefaults()}
	e.SetMembers(addrs)
	return e
}

// SetTuning replaces the engine's liveness/retry tuning; zero fields
// take their defaults. Jobs already running keep the tuning they
// started with.
func (e *Engine) SetTuning(t Tuning) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tun = t.withDefaults()
}

func (e *Engine) tuning() Tuning {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tun
}

// Members returns the current membership, in banding order.
func (e *Engine) Members() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.members))
	copy(out, e.members)
	return out
}

// SetMembers replaces the membership (duplicates removed, order kept).
// It takes effect at the next job.
func (e *Engine) SetMembers(addrs []string) {
	seen := make(map[string]bool, len(addrs))
	members := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		members = append(members, a)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.members = members
}

// AddMember appends a worker address; it reports whether the membership
// changed (false for a duplicate or empty address).
func (e *Engine) AddMember(addr string) bool {
	if addr == "" {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range e.members {
		if a == addr {
			return false
		}
	}
	e.members = append(e.members, addr)
	return true
}

// RemoveMember drops a worker address; it reports whether the address
// was a member. Jobs already running against it are unaffected.
func (e *Engine) RemoveMember(addr string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, a := range e.members {
		if a == addr {
			e.members = append(e.members[:i], e.members[i+1:]...)
			return true
		}
	}
	return false
}

// MemberHealth is one member's probe outcome.
type MemberHealth struct {
	Addr    string
	Healthy bool
}

// Health probes every member with a dial+ping+pong round trip and
// reports each outcome in membership order.
func (e *Engine) Health(ctx context.Context) []MemberHealth {
	members := e.Members()
	healthy := e.probeAll(ctx, members)
	out := make([]MemberHealth, len(members))
	for i, a := range members {
		out[i] = MemberHealth{Addr: a, Healthy: healthy[i]}
	}
	return out
}

// probeAll health-checks addrs concurrently; result i reports addr i.
func (e *Engine) probeAll(ctx context.Context, addrs []string) []bool {
	tun := e.tuning()
	out := make([]bool, len(addrs))
	var wg sync.WaitGroup
	//vet:noctx each probe bounds itself with ProbeTimeout under this ctx
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i] = probe(ctx, e.tr, addr, tun.ProbeTimeout)
		}(i, addr)
	}
	wg.Wait()
	return out
}

// probe runs one health round trip: dial, ping, expect a pong.
func probe(ctx context.Context, tr transport.Transport, addr string, timeout time.Duration) bool {
	dctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	c, err := tr.Dial(dctx, addr)
	if err != nil {
		return false
	}
	defer c.Close()
	if err := c.Send(transport.Frame{Type: byte(framePing)}, timeout); err != nil {
		return false
	}
	f, err := c.Recv(timeout)
	return err == nil && frameType(f.Type) == framePong
}

// Name implements core.Engine.
func (e *Engine) Name() string {
	return fmt.Sprintf("distributed/%dw", len(e.Members()))
}

// commCounters tallies the job's real communication, reported in
// core.CommStats (the same block the simulated message-passing engine
// fills from its cost model). Liveness pings are not communication of
// the algorithm and are never counted.
type commCounters struct {
	messages, words             atomic.Int64
	reduces, gathers, exchanges atomic.Int64
}

// SegmentContext implements core.Engine. Cancelling ctx sends an
// abort frame to every worker and tears the connections down; workers
// abandon the job at their next collective (within one split/merge
// iteration) and stay alive for the next one. All coordinator
// goroutines have drained by the time the error returns.
//
// A worker lost mid-job (death, stall past the link timeout, broken
// connection) does not fail the job: the engine probes the membership
// and re-runs the job across the workers that answered, re-banding the
// image. Labels are byte-identical across any membership, so a retried
// job is indistinguishable from a first-attempt run on the survivors.
// Retries are counted in Stats.Comm.Retries. The job fails with
// ErrNoWorkers when no member answers the probe, with the transport
// failure itself once MaxAttempts is exhausted, and immediately on
// non-retryable failures (cancellation, protocol errors).
func (e *Engine) SegmentContext(ctx context.Context, im *pixmap.Image, cfg core.Config, run core.Run) (*core.Segmentation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	members := e.Members()
	if len(members) == 0 {
		return nil, fmt.Errorf("distengine: no cluster workers configured: %w", ErrNoWorkers)
	}
	if im.W == 0 || im.H == 0 {
		return nil, fmt.Errorf("distengine: cannot distribute an empty %dx%d image", im.W, im.H)
	}
	tun := e.tuning()
	var retries int64
	for attempt := 0; ; attempt++ {
		addrs := members
		if attempt > 0 {
			// Probe the full membership, not last attempt's survivors: a
			// worker that restarted between attempts rejoins the job.
			healthy := e.probeAll(ctx, members)
			addrs = addrs[:0:0]
			for i, a := range members {
				if healthy[i] {
					addrs = append(addrs, a)
				}
			}
			if len(addrs) == 0 {
				return nil, fmt.Errorf("distengine: job unrecoverable after %d attempts: %w", attempt, ErrNoWorkers)
			}
		}
		seg, err := e.runJob(ctx, tun, addrs, im, cfg, run)
		if err == nil {
			seg.Comm.Retries = retries
			return seg, nil
		}
		if !errors.Is(err, ErrWorkerLost) || attempt+1 >= tun.MaxAttempts {
			return nil, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		retries++
	}
}

// runJob executes one end-to-end attempt across the given workers.
func (e *Engine) runJob(ctx context.Context, tun Tuning, addrs []string, im *pixmap.Image, cfg core.Config, run core.Run) (*core.Segmentation, error) {
	cap := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, im.W, im.H)
	blocks := (im.H + cap - 1) / cap
	m := min(len(addrs), blocks)

	// Band boundaries: blocks of cap rows spread as evenly as possible,
	// every boundary cap-aligned so no split square crosses one.
	starts := make([]int, m+1)
	base, rem := blocks/m, blocks%m
	for r := 0; r < m; r++ {
		take := base
		if r < rem {
			take++
		}
		starts[r+1] = min(starts[r]+take*cap, im.H)
	}
	starts[m] = im.H

	run.Emit(core.StageEvent{Kind: core.EventSplitStart})
	t0 := time.Now() //vet:timing total wall-time for Stats; never reaches labels or frames

	conns := make([]transport.Conn, m)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for r := 0; r < m; r++ {
		dctx, cancel := context.WithTimeout(ctx, tun.DialTimeout)
		c, err := e.tr.Dial(dctx, addrs[r])
		cancel()
		if err != nil {
			return nil, fmt.Errorf("distengine: dialing worker %d at %s: %v: %w", r, addrs[r], err, ErrWorkerLost)
		}
		conns[r] = c
	}

	coll := newCollective(m)
	var comm commCounters

	// fail aborts the whole job once: release blocked collectives, then
	// best-effort abort frames and teardown so workers and handlers
	// blocked on I/O unwind too. The abort frame goes out under a tight
	// 2-second bound, so a worker that stops reading can never stall
	// cancellation, and Close releases any handler blocked on the link.
	var failOnce sync.Once
	fail := func(err error) {
		failOnce.Do(func() {
			coll.abort(err)
			for _, c := range conns {
				_ = c.Send(transport.Frame{Type: byte(frameAbort)}, 2*time.Second)
				c.Close()
			}
		})
	}

	// The context watcher turns ctx cancellation into a job abort; the
	// heartbeat goroutines keep every worker's read deadline fed while
	// its collectives wait on other bands' compute. jobDone stops both.
	jobDone := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		select {
		case <-ctx.Done():
			fail(ctx.Err())
		case <-jobDone:
		}
	}()
	for _, c := range conns {
		aux.Add(1)
		go func(c transport.Conn) {
			defer aux.Done()
			pingLoop(c, tun.HeartbeatInterval, tun.WriteTimeout, jobDone)
		}(c)
	}

	results := make([]*nodeprog.Result, m)
	var wg sync.WaitGroup
	for r := 0; r < m; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := runWorker(rank, conns[rank], tun, starts, cap, im, cfg, coll, &comm, run, results); err != nil {
				fail(err)
			}
		}(r)
	}
	wg.Wait()
	close(jobDone)
	aux.Wait()

	if err := coll.abortError(); err != nil {
		return nil, err
	}
	for r, res := range results {
		if res == nil {
			// Unreachable: a handler that returns without a result also
			// returns an error, which aborts above. Guard the assembly
			// against future handler changes rather than panicking.
			return nil, fmt.Errorf("distengine: worker %d finished without a result", r)
		}
	}

	totalWall := time.Since(t0) //vet:timing total wall-time for Stats; never reaches labels or frames
	seg := nodeprog.Assemble(im, nodeprog.Grid{XStarts: []int{0, im.W}, YStarts: starts}, results, totalWall)
	seg.Comm = &core.CommStats{
		Messages:  comm.messages.Load(),
		Words:     comm.words.Load(),
		Gathers:   comm.gathers.Load(),
		Reduces:   comm.reduces.Load(),
		Exchanges: comm.exchanges.Load(),
	}
	run.Emit(core.StageEvent{Kind: core.EventMergeDone, Iterations: seg.MergeIterations, Regions: seg.FinalRegions})
	return seg, nil
}

// pingLoop emits liveness pings on c until the job ends or a ping fails
// (a failed ping needs no action of its own: the peer's read deadline
// or this side's handler surfaces the loss).
func pingLoop(c transport.Conn, interval, writeTimeout time.Duration, done <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if c.Send(transport.Frame{Type: byte(framePing)}, writeTimeout) != nil {
				return
			}
		}
	}
}

// syncErr classifies a collective error for a connection handler: once
// the collective is aborted the teardown is already in flight, so the
// handler just unwinds; a round error without an abort (e.g. malformed
// exchange routing from one worker) must propagate so the caller aborts
// the job — otherwise every handler would swallow it and the coordinator
// would try to assemble nil results.
func syncErr(coll *collective, err error) error {
	if coll.abortError() != nil {
		return nil
	}
	return err
}

// lost wraps a transport-level handler failure as retryable, unless the
// abort path already owns the teardown.
func lost(coll *collective, rank int, op string, err error) error {
	if coll.abortError() != nil {
		return nil // the abort path closed the connection under us
	}
	return fmt.Errorf("distengine: worker %d: %s: %v: %w", rank, op, err, ErrWorkerLost)
}

// runWorker drives one worker connection: send the job frame, then serve
// its collective requests until the result frame arrives. It returns nil
// on a normal result and the failure otherwise — wrapping ErrWorkerLost
// for transport-level losses (including reads cut short by an abort
// teardown, where the collective's abort error wins instead).
func runWorker(rank int, wc transport.Conn, tun Tuning, starts []int, cap int, im *pixmap.Image, cfg core.Config, coll *collective, comm *commCounters, run core.Run, results []*nodeprog.Result) error {
	j := &job{
		Rank:              rank,
		Workers:           len(starts) - 1,
		W:                 im.W,
		H:                 im.H,
		Cap:               cap,
		Threshold:         cfg.Threshold,
		Tie:               int32(cfg.Tie),
		Seed:              cfg.Seed,
		HeartbeatMillis:   uint32(tun.HeartbeatInterval / time.Millisecond),
		LinkTimeoutMillis: uint32(tun.LinkTimeout / time.Millisecond),
		BandStarts:        starts,
		Pix:               im.Pix[starts[rank]*im.W : starts[rank+1]*im.W],
	}
	if err := wc.Send(transport.Frame{Type: byte(frameJob), Payload: j.encode()}, tun.WriteTimeout); err != nil {
		return lost(coll, rank, "sending job", err)
	}
	answer := func(t frameType, payload []byte) error {
		if err := wc.Send(transport.Frame{Type: byte(t), Payload: payload}, tun.WriteTimeout); err != nil {
			return lost(coll, rank, "answering", err)
		}
		return nil
	}
	for {
		f, err := wc.Recv(tun.LinkTimeout)
		if err != nil {
			return lost(coll, rank, "connection", err)
		}
		ft, payload := frameType(f.Type), f.Payload
		if ft == framePing || ft == framePong {
			continue // liveness traffic; not the algorithm's communication
		}
		comm.messages.Add(1)
		comm.words.Add(int64(len(payload) / 4))
		switch ft {
		case frameReduce:
			kind, seq, val, err := decodeReduce(payload)
			if err != nil {
				return fmt.Errorf("distengine: worker %d: malformed reduce: %w", rank, err)
			}
			comm.reduces.Add(1)
			r, err := coll.sync(rank, kind, seq, val, nil)
			if err != nil {
				return syncErr(coll, err)
			}
			var e2 enc
			e2.i64(r.val)
			if err := answer(frameReduceResult, e2.b); err != nil {
				return err
			}
		case frameGather:
			seq, data, err := decodeGather(payload)
			if err != nil {
				return fmt.Errorf("distengine: worker %d: malformed gather: %w", rank, err)
			}
			comm.gathers.Add(1)
			r, err := coll.sync(rank, roundGather, seq, 0, data)
			if err != nil {
				return syncErr(coll, err)
			}
			var e2 enc
			e2.i32s(r.gather)
			if err := answer(frameGatherResult, e2.b); err != nil {
				return err
			}
		case frameExchange:
			seq, routed, err := decodeExchange(payload)
			if err != nil {
				return fmt.Errorf("distengine: worker %d: malformed exchange: %w", rank, err)
			}
			comm.exchanges.Add(1)
			r, err := coll.sync(rank, roundExchange, seq, 0, routed)
			if err != nil {
				return syncErr(coll, err)
			}
			var e2 enc
			e2.i32s(r.route[rank])
			if err := answer(frameExchangeResult, e2.b); err != nil {
				return err
			}
		case frameExchangeMax:
			seq, val, routed, err := decodeExchangeMax(payload)
			if err != nil {
				return fmt.Errorf("distengine: worker %d: malformed exchange-max: %w", rank, err)
			}
			// One reduce, and an exchange only when the maximum lets the
			// round go on: the counts of the two collectives it fuses.
			comm.reduces.Add(1)
			r, err := coll.sync(rank, roundExchangeMax, seq, val, routed)
			if err != nil {
				return syncErr(coll, err)
			}
			if r.val > 0 {
				comm.exchanges.Add(1)
			}
			if err := answer(frameExchangeMaxResult, encodeExchangeMaxResult(r.val, r.route[rank])); err != nil {
				return err
			}
		case frameEvent:
			ev, err := decodeEvent(payload)
			if err != nil {
				return fmt.Errorf("distengine: worker %d: malformed event", rank)
			}
			if rank == 0 {
				run.Emit(ev)
			}
		case frameResult:
			res, err := decodeResult(payload)
			if err != nil {
				return fmt.Errorf("distengine: worker %d: malformed result: %w", rank, err)
			}
			want := (starts[rank+1] - starts[rank]) * im.W
			if len(res.Labels) != want {
				return fmt.Errorf("distengine: worker %d returned %d labels, want %d", rank, len(res.Labels), want)
			}
			results[rank] = res
			return nil
		case frameError:
			return fmt.Errorf("distengine: worker %d failed: %s", rank, payload)
		default:
			return fmt.Errorf("distengine: worker %d sent unexpected frame %d", rank, ft)
		}
	}
}

var _ core.Engine = (*Engine)(nil)
