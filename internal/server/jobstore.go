package server

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regiongrow"
	"regiongrow/client"
)

// ErrStoreFull is returned by jobStore.add when every slot is held by a
// job that has not finished yet — nothing is evictable, so the submission
// must be rejected (the HTTP layer answers 429, the same backpressure
// signal as a full queue).
var ErrStoreFull = errors.New("server: job store full")

// jobEntry is one job's record, stage observer and broadcast hub: the
// engine reports its stage events to it, which move the job between the
// server-wide stage gauges and append wire events that SSE subscribers
// replay and follow, and its terminal state is what GET /v1/jobs/{id}
// serves. Entries live in the Server's jobStore until TTL eviction.
//
// Locking: fields under mu change on the worker (Observe, complete) and
// are read by handlers; created and the request echo are immutable after
// construction. finished and state are additionally written only while
// the store's lock is also held, so the store can read them during
// eviction sweeps without taking every entry's lock.
type jobEntry struct {
	id      string
	created time.Time
	// cancel aborts the job's compute; DELETE /v1/jobs/{id} calls it.
	// Never nil (cache-hit jobs get a no-op derivative).
	cancel context.CancelFunc
	// progress holds the server-wide stage gauges and totals the job's
	// events feed.
	progress *progressMetrics
	// doneEl is the entry's position in the store's eviction list once
	// terminal; guarded by the store's lock, not mu.
	doneEl *list.Element

	// Request echo, immutable after construction.
	SegmentParams
	imageHash string
	w, h      int

	// internal marks records registered by the synchronous path: their
	// IDs are never revealed to a client, so no one will ever read their
	// wire Result — complete skips building it, keeping /v1/segment's
	// memory (and its cache-hit throughput) what it was before the job
	// machinery existed.
	internal bool

	mu    sync.Mutex
	state client.JobState
	cache string // "miss", flipped to "hit" when answered from cache
	// events are the recorded stage events, in emission order; changed is
	// closed and replaced on every append and on completion, which is how
	// SSE subscribers follow the log without ever blocking the producer.
	events  []client.Event
	changed chan struct{}
	// terminalc closes exactly once, when the job reaches a terminal
	// state; the synchronous path waits on it.
	terminalc chan struct{}
	started   time.Time
	finished  time.Time
	// ans is held from completion until the synchronous waiter has read
	// it (release) — async records drop it as soon as the wire Result is
	// built, so a terminal record pins only its wire form.
	ans    *answer
	err    error
	result *client.Result
	// terminalJSON is the compact record snapshot frozen for the terminal
	// SSE event, so every subscriber sees identical bytes.
	terminalJSON []byte
	// Progress accumulators fed by Observe. stage is the wire stage
	// ("queued", "split", "graph", "merge", "done"); gauge is the
	// server-wide gauge the compute occupies, nil before split, after
	// merge, and once the record is terminal.
	stage                             string
	gauge                             *atomic.Int64
	splitIters, squares               int
	mergeIter, mergesTotal, finalRegs int
}

// newInstanceID mints a random 8-hex-character server identity, used when
// Options.Instance is left empty.
func newInstanceID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// newJobID mints an opaque, unguessable job identifier carrying the
// owning server's instance ID: "job-<instance>-<random hex>". The
// embedded instance is what lets a stateless fleet gateway route
// GET/DELETE /v1/jobs/{id} and the SSE event stream to the one backend
// holding the record — see ParseJobInstance, the inverse.
func newJobID(instance string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "job-" + instance + "-" + hex.EncodeToString(b[:])
}

// ParseJobInstance extracts the owning server's instance ID from a job ID
// minted by newJobID. It is the routing key of the fleet gateway's
// job-record proxying, exported so gateway and server can never disagree
// on the ID scheme. The instance may itself contain hyphens (operators
// name backends "backend-1"); the random suffix never does, so the last
// hyphen is the separator. IDs in another shape (including pre-fleet
// "job-<hex>" IDs) report ok=false.
func ParseJobInstance(id string) (instance string, ok bool) {
	rest, found := strings.CutPrefix(id, "job-")
	if !found {
		return "", false
	}
	i := strings.LastIndex(rest, "-")
	if i <= 0 {
		return "", false
	}
	return rest[:i], true
}

func newJobEntry(req *segmentRequest, imageHash, instance string, cancel context.CancelFunc, progress *progressMetrics) *jobEntry {
	return &jobEntry{
		id:            newJobID(instance),
		created:       time.Now(),
		cancel:        cancel,
		progress:      progress,
		SegmentParams: req.SegmentParams,
		imageHash:     imageHash,
		w:             req.im.W,
		h:             req.im.H,
		state:         client.StateQueued,
		cache:         "miss",
		stage:         "queued",
		changed:       make(chan struct{}),
		terminalc:     make(chan struct{}),
	}
}

// bumpLocked wakes every follower of the event log. Callers hold mu.
func (e *jobEntry) bumpLocked() {
	close(e.changed)
	e.changed = make(chan struct{})
}

// Observe implements regiongrow.Observer: each stage event flips a queued
// record to running, moves the job between the server-wide stage gauges,
// updates the progress accumulators and totals, and wakes followers. It
// runs on the compute goroutine, so it must not block beyond the short
// critical section.
func (e *jobEntry) Observe(ev regiongrow.StageEvent) {
	p := e.progress
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == client.StateQueued {
		e.state = client.StateRunning
		e.started = time.Now()
	}
	switch ev.Kind {
	case regiongrow.EventSplitStart:
		e.stage = "split"
		e.occupyLocked(&p.inSplit)
	case regiongrow.EventSplitDone:
		e.stage = "graph"
		e.splitIters = ev.Iterations
		e.squares = ev.Squares
		p.splitsDone.Add(1)
		e.occupyLocked(&p.inGraph)
	case regiongrow.EventGraphDone:
		e.stage = "merge"
		e.occupyLocked(&p.inMerge)
	case regiongrow.EventMergeIteration:
		e.mergeIter = ev.Iteration
		e.mergesTotal += ev.Merges
		p.mergeIters.Add(1)
		p.mergesDone.Add(int64(ev.Merges))
	case regiongrow.EventMergeDone:
		e.stage = "done"
		e.finalRegs = ev.Regions
		e.occupyLocked(nil)
	}
	e.events = append(e.events, client.WireEvent(ev))
	e.bumpLocked()
}

// occupyLocked moves the job from the stage gauge it holds to g (nil for
// none). Callers hold mu.
func (e *jobEntry) occupyLocked(g *atomic.Int64) {
	if e.gauge == g {
		return
	}
	if e.gauge != nil {
		e.gauge.Add(-1)
	}
	if g != nil {
		g.Add(1)
	}
	e.gauge = g
}

// stageText names the furthest stage the job's compute reached, for the
// 504 answer of a timed-out request. The wire stage "done" reads as
// "result finalization": a deadline can genuinely win the race against a
// merge that just finished — the engine was done, the response was not.
func (e *jobEntry) stageText() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.stage {
	case "split":
		return "split"
	case "graph":
		return "graph build"
	case "merge":
		if e.mergeIter > 0 {
			return fmt.Sprintf("merge (iteration %d)", e.mergeIter)
		}
		return "merge"
	case "done":
		return "result finalization"
	default:
		return "queued"
	}
}

// wait blocks until the job is terminal or ctx ends, returning the
// compute outcome or ctx's error. A job cancels its own context right
// after completing, so when both are ready the outcome wins.
func (e *jobEntry) wait(ctx context.Context) (*answer, error) {
	select {
	case <-e.terminalc:
	case <-ctx.Done():
		select {
		case <-e.terminalc:
		default:
			return nil, ctx.Err()
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ans, e.err
}

// buildResult derives the wire Result of a completed segmentation: its
// counters and wall times, the region statistics the worker computed with
// it, and the label raster if requested. It does no per-pixel work.
func buildResult(ans *answer, labels bool) *client.Result {
	seg := ans.seg
	r := &client.Result{
		FinalRegions:      seg.FinalRegions,
		SplitIterations:   seg.SplitIterations,
		MergeIterations:   seg.MergeIterations,
		SquaresAfterSplit: seg.SquaresAfterSplit,
		SplitWallMs:       seg.SplitWall.Seconds() * 1e3,
		MergeWallMs:       seg.MergeWall.Seconds() * 1e3,
		SplitSimSecs:      seg.SplitSim,
		MergeSimSecs:      seg.MergeSim,
		Regions:           ans.regions,
	}
	if labels {
		r.Labels = seg.Labels
	}
	return r
}

// meta returns the request echo as the wire meta blocks the job record
// and the /v1/segment response share.
func (e *jobEntry) meta() (client.ImageMeta, client.ConfigMeta) {
	return client.ImageMeta{Name: e.ImageName, Width: e.w, Height: e.h, SHA256: e.imageHash},
		client.ConfigMeta{Threshold: e.Config.Threshold, Tie: e.Config.Tie, Seed: e.Config.Seed, MaxSquare: e.Config.MaxSquare}
}

// snapshotLocked builds the wire record. Callers hold mu.
func (e *jobEntry) snapshotLocked() client.Job {
	image, config := e.meta()
	j := client.Job{
		APIVersion: client.APIVersion,
		ID:         e.id,
		State:      e.state,
		Engine:     e.Kind,
		Cache:      e.cache,
		Image:      image,
		Config:     config,
		Progress: client.Progress{
			Stage:           e.stage,
			SplitIterations: e.splitIters,
			Squares:         e.squares,
			MergeIteration:  e.mergeIter,
			Merges:          e.mergesTotal,
		},
		CreatedAt:  e.created,
		StartedAt:  e.started,
		FinishedAt: e.finished,
		Result:     e.result,
	}
	if e.err != nil {
		j.Error = e.err.Error()
	}
	return j
}

// snapshot returns the job's current wire record.
func (e *jobEntry) snapshot() client.Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

// release drops the answer once the synchronous waiter has served it, so
// a sync record pins nothing beyond its wire form for the TTL.
func (e *jobEntry) release() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ans = nil
}

// terminalFrame returns the SSE terminal event name and its frozen data
// bytes. Valid only once terminal.
func (e *jobEntry) terminalFrame() (name string, data []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.terminalJSON == nil {
		e.terminalJSON, _ = json.Marshal(e.snapshotLocked())
	}
	return string(e.state), e.terminalJSON
}

// jobStore is the bounded in-memory registry of job records. Terminal
// records are evicted when they age past the TTL (swept lazily on every
// add and lookup) or, at capacity, oldest-finished-first to make room for
// new submissions; records that have not finished are never evicted — if
// the store is full of them, add rejects with ErrStoreFull. Both
// rejection paths surface as 429 to clients, mirroring the pool queue's
// backpressure.
type jobStore struct {
	ttl time.Duration
	cap int

	mu   sync.Mutex
	byID map[string]*jobEntry
	// done orders terminal entries oldest-finished-first: the TTL sweep
	// pops from the front, as does capacity eviction.
	done *list.List

	submitted atomic.Int64
	evicted   atomic.Int64
}

func newJobStore(capacity int, ttl time.Duration) *jobStore {
	return &jobStore{
		ttl:  ttl,
		cap:  capacity,
		byID: make(map[string]*jobEntry),
		done: list.New(),
	}
}

// add registers a fresh entry, sweeping expired records first and
// evicting the oldest terminal record if the store is at capacity.
func (st *jobStore) add(e *jobEntry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(time.Now())
	if len(st.byID) >= st.cap {
		front := st.done.Front()
		if front == nil {
			return ErrStoreFull
		}
		st.evictLocked(front.Value.(*jobEntry))
	}
	st.byID[e.id] = e
	st.submitted.Add(1)
	return nil
}

// remove deregisters an entry that never reached the pool (enqueue
// failed), so phantom queued records don't linger.
func (st *jobStore) remove(e *jobEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.byID, e.id)
	st.submitted.Add(-1)
}

// get looks an entry up after sweeping expired records, so an evictable
// record is never served.
func (st *jobStore) get(id string) (*jobEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(time.Now())
	e, ok := st.byID[id]
	return e, ok
}

// complete transitions an entry to its terminal state, classifies the
// error (cancelled contexts read as canceled, deadline expiry and engine
// errors as failed), releases whatever stage gauge the compute still
// holds, freezes the record, wakes all followers, and files the entry for
// TTL eviction. Successful public jobs have their wire Result built here,
// off-lock since the answer is settled.
func (st *jobStore) complete(e *jobEntry, ans *answer, err error) {
	var result *client.Result
	if err == nil && ans != nil && !e.internal {
		result = buildResult(ans, e.Labels)
	}
	now := time.Now()
	st.mu.Lock()
	e.mu.Lock()
	e.ans, e.err = ans, err
	e.result = result
	if result != nil {
		// Async records serve the wire form only; the raw segmentation
		// would just pin label arrays past the cache's own bounds.
		e.ans = nil
	}
	e.finished = now
	e.occupyLocked(nil)
	switch {
	case err == nil:
		e.state = client.StateDone
		e.stage = "done"
	case errors.Is(err, context.Canceled):
		e.state = client.StateCanceled
	default:
		e.state = client.StateFailed
	}
	close(e.terminalc)
	e.bumpLocked()
	e.mu.Unlock()
	if _, ok := st.byID[e.id]; ok {
		e.doneEl = st.done.PushBack(e)
	}
	st.mu.Unlock()
}

// sweepLocked drops terminal records older than the TTL. finished and
// state are stable under the store lock (see jobEntry), so no entry lock
// is needed.
func (st *jobStore) sweepLocked(now time.Time) {
	for el := st.done.Front(); el != nil; {
		e := el.Value.(*jobEntry)
		if now.Sub(e.finished) < st.ttl {
			break
		}
		next := el.Next()
		st.evictLocked(e)
		el = next
	}
}

// evictLocked removes one terminal entry from both indexes.
func (st *jobStore) evictLocked(e *jobEntry) {
	if e.doneEl != nil {
		st.done.Remove(e.doneEl)
		e.doneEl = nil
	}
	delete(st.byID, e.id)
	st.evicted.Add(1)
}

// JobStats is the job-store block of /v1/stats.
type JobStats struct {
	// Stored counts records currently retrievable, split by state below.
	Stored   int `json:"stored"`
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// SubmittedTotal counts every job ever registered (async, batch, and
	// synchronous requests all run through the job machinery);
	// EvictedTotal counts records dropped by TTL or capacity eviction.
	SubmittedTotal int64   `json:"submitted_total"`
	EvictedTotal   int64   `json:"evicted_total"`
	Capacity       int     `json:"capacity"`
	TTLSeconds     float64 `json:"ttl_seconds"`
}

func (st *jobStore) snapshot() JobStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(time.Now())
	s := JobStats{
		Stored:         len(st.byID),
		SubmittedTotal: st.submitted.Load(),
		EvictedTotal:   st.evicted.Load(),
		Capacity:       st.cap,
		TTLSeconds:     st.ttl.Seconds(),
	}
	for _, e := range st.byID {
		e.mu.Lock()
		state := e.state
		e.mu.Unlock()
		switch state {
		case client.StateQueued:
			s.Queued++
		case client.StateRunning:
			s.Running++
		case client.StateDone:
			s.Done++
		case client.StateFailed:
			s.Failed++
		case client.StateCanceled:
			s.Canceled++
		}
	}
	return s
}
