package regiongrow

import (
	"context"
	"fmt"
	"sync"

	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/dpengine"
	"regiongrow/internal/mpengine"
	"regiongrow/internal/quadsplit"
)

// Observer receives typed stage events during a segmentation run: split
// start/done, graph built, every merge iteration (with its merge count),
// and completion. See core.Observer for the delivery contract; cancelling
// the run's context from inside Observe aborts the run within one
// split/merge iteration.
type Observer = core.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = core.ObserverFunc

// StageEvent is one progress event; see core.StageEvent for field
// population per kind.
type StageEvent = core.StageEvent

// EventKind names a stage event type.
type EventKind = core.EventKind

// The stage event kinds, in emission order.
const (
	EventSplitStart     = core.EventSplitStart
	EventSplitDone      = core.EventSplitDone
	EventGraphDone      = core.EventGraphDone
	EventMergeIteration = core.EventMergeIteration
	EventMergeDone      = core.EventMergeDone
)

// Segmenter is a reusable segmentation session bound to one engine kind.
// It is the context-first entry point to every engine: Segment threads
// ctx through split loops, RAG build, and merge rounds (cancellation
// returns ctx.Err() within one iteration on every engine), reports stage
// progress to the configured Observer, and recycles the split's scratch
// (its square list, edge buffer and walk rows) through an internal
// sync.Pool, so repeated calls on same-size images allocate none of them
// again: on image 1, BenchmarkSegmenterReuse measures 202 allocs and
// 157 KB per call against BenchmarkSegmentOneShot's 205 and 178 KB.
//
// A Segmenter is safe for concurrent use; each call draws its own buffer
// set from the pool. Pooling never affects results: the property-based
// test suite pins pooled reuse byte-identical to fresh unpooled runs
// across all paper images, tie policies, and engines, so the determinism
// and cache-key invariants (CacheKey, CanonicalizeConfig) are untouched.
type Segmenter struct {
	kind     EngineKind
	eng      core.Engine
	observer Observer
	scratch  sync.Pool // of *quadsplit.Scratch
}

// Option configures a Segmenter at construction time.
type Option func(*Segmenter) error

// WithObserver sets the session observer. A per-call observer passed to
// SegmentObserved overrides it for that call.
func WithObserver(o Observer) Option {
	return func(s *Segmenter) error {
		s.observer = o
		return nil
	}
}

// WithWorkers fixes the native engine's worker count (0 follows
// GOMAXPROCS): its split runs in at most that many cap-aligned row bands,
// one goroutine each. It is an error on any other engine kind — the
// simulated kinds model fixed machine configurations.
func WithWorkers(n int) Option {
	return func(s *Segmenter) error {
		if s.kind != NativeParallel {
			return fmt.Errorf("regiongrow: WithWorkers applies only to NativeParallel, not %v", s.kind)
		}
		if n < 0 {
			return fmt.Errorf("regiongrow: negative worker count %d", n)
		}
		s.eng = core.Native{Workers: n}
		return nil
	}
}

// WithClusterWorkers points the Distributed engine at its worker
// processes (regiongrow-worker listen addresses, one band per worker —
// small images use a prefix of the list). It is required for, and only
// valid on, New(Distributed).
func WithClusterWorkers(addrs []string) Option {
	return func(s *Segmenter) error {
		if s.kind != Distributed {
			return fmt.Errorf("regiongrow: WithClusterWorkers applies only to Distributed, not %v", s.kind)
		}
		if len(addrs) == 0 {
			return fmt.Errorf("regiongrow: WithClusterWorkers needs at least one worker address")
		}
		s.eng = distengine.New(addrs)
		return nil
	}
}

// New constructs a reusable Segmenter for the engine kind. Options set
// the progress observer and the engine's workers; see the Option
// constructors.
func New(kind EngineKind, opts ...Option) (*Segmenter, error) {
	s := &Segmenter{kind: kind}
	mc, _ := kind.MachineConfig()
	switch kind {
	case SequentialEngine:
		s.eng = core.Sequential{}
	case CM2DataParallel8K, CM2DataParallel16K, CM5DataParallel:
		s.eng = dpengine.New(mc)
	case CM5LinearPermutation, CM5Async:
		s.eng = mpengine.New(mc)
	case NativeParallel:
		s.eng = core.Native{}
	case Distributed:
		// Constructed by WithClusterWorkers: it is the one kind that
		// cannot exist without configuration.
	default:
		return nil, fmt.Errorf("regiongrow: unknown engine kind %d", int(kind))
	}
	s.scratch.New = func() any { return new(quadsplit.Scratch) }
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.eng == nil {
		return nil, fmt.Errorf("regiongrow: the distributed engine needs worker addresses; pass WithClusterWorkers")
	}
	return s, nil
}

// Kind returns the engine kind the session runs.
func (s *Segmenter) Kind() EngineKind { return s.kind }

// MemberHealth is one cluster worker's probe outcome, as reported by
// ClusterHealth.
type MemberHealth = distengine.MemberHealth

// cluster asserts the session runs the Distributed engine and returns it.
func (s *Segmenter) cluster() (*distengine.Engine, error) {
	eng, ok := s.eng.(*distengine.Engine)
	if !ok {
		return nil, fmt.Errorf("regiongrow: cluster membership applies only to Distributed, not %v", s.kind)
	}
	return eng, nil
}

// ClusterMembers returns the Distributed session's current worker
// addresses, in banding order. It errs on every other engine kind.
func (s *Segmenter) ClusterMembers() ([]string, error) {
	eng, err := s.cluster()
	if err != nil {
		return nil, err
	}
	return eng.Members(), nil
}

// ClusterJoin adds a worker address to the Distributed session's
// membership, effective at the next job — no restart, no reconstruction.
// It reports whether the membership changed (false for an address already
// present) and errs on every other engine kind or an empty address.
func (s *Segmenter) ClusterJoin(addr string) (bool, error) {
	eng, err := s.cluster()
	if err != nil {
		return false, err
	}
	if addr == "" {
		return false, fmt.Errorf("regiongrow: empty worker address")
	}
	return eng.AddMember(addr), nil
}

// ClusterLeave removes a worker address from the Distributed session's
// membership, effective at the next job; jobs already running against the
// worker are unaffected. Removing the last member is refused — a
// Distributed session never exists without at least one worker — and an
// address that was never a member reports false without error.
func (s *Segmenter) ClusterLeave(addr string) (bool, error) {
	eng, err := s.cluster()
	if err != nil {
		return false, err
	}
	members := eng.Members()
	if len(members) == 1 && members[0] == addr {
		return false, fmt.Errorf("regiongrow: cannot remove the last cluster worker %q", addr)
	}
	return eng.RemoveMember(addr), nil
}

// ClusterHealth probes every cluster member with a dial+ping+pong round
// trip and reports each outcome in membership order. It errs on every
// other engine kind.
func (s *Segmenter) ClusterHealth(ctx context.Context) ([]MemberHealth, error) {
	eng, err := s.cluster()
	if err != nil {
		return nil, err
	}
	return eng.Health(ctx), nil
}

// Engine exposes the underlying engine, mainly for Name.
func (s *Segmenter) Engine() Engine { return s.eng }

// Segment runs one segmentation of im under cfg with the session's
// engine and observer. A Config that fails Config.Check is refused with
// that error before any work. Cancelling ctx aborts the run within one
// split/merge iteration and returns ctx.Err(); the segmentation is then
// nil. Results are independent of pooling and identical to an unpooled
// run of the same engine for the same Config.
func (s *Segmenter) Segment(ctx context.Context, im *Image, cfg Config) (*Segmentation, error) {
	return s.SegmentObserved(ctx, im, cfg, s.observer)
}

// SegmentObserved is Segment with a per-call observer (nil falls back to
// the session observer) — the hook a server uses to track per-job
// progress while sharing one pooled Segmenter across requests.
func (s *Segmenter) SegmentObserved(ctx context.Context, im *Image, cfg Config, obs Observer) (*Segmentation, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if obs == nil {
		obs = s.observer
	}
	sc := s.scratch.Get().(*quadsplit.Scratch)
	defer s.scratch.Put(sc)
	return s.eng.SegmentContext(ctx, im, cfg, core.Run{Observer: obs, Scratch: sc})
}
