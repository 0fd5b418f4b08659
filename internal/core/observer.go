package core

import (
	"fmt"

	"regiongrow/internal/quadsplit"
)

// EventKind names one typed stage event of a segmentation run.
type EventKind int

const (
	// EventSplitStart fires once, before the split stage's first pass.
	EventSplitStart EventKind = iota
	// EventSplitDone fires when the split stage completes; Iterations and
	// Squares carry the stage totals.
	EventSplitDone
	// EventGraphDone fires when the region adjacency graph is built;
	// Squares carries the vertex count (one vertex per split square).
	EventGraphDone
	// EventMergeIteration fires after every merge round; Iteration is the
	// 1-based round number and Merges the region pairs merged in it.
	EventMergeIteration
	// EventMergeDone fires when the run completes; Iterations carries the
	// merge round total and Regions the final region count.
	EventMergeDone
)

// String returns a stable name for the event kind.
func (k EventKind) String() string {
	switch k {
	case EventSplitStart:
		return "split-start"
	case EventSplitDone:
		return "split-done"
	case EventGraphDone:
		return "graph-done"
	case EventMergeIteration:
		return "merge-iteration"
	case EventMergeDone:
		return "merge-done"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// allEventKinds lists every stage event kind, in emission order — the
// single range both text-marshaling directions walk.
var allEventKinds = [...]EventKind{EventSplitStart, EventSplitDone,
	EventGraphDone, EventMergeIteration, EventMergeDone}

// MarshalText implements encoding.TextMarshaler with the String name, so
// wire event records carry "split-done" rather than a bare integer.
// Unknown kinds fail rather than emitting a name UnmarshalText would
// reject.
func (k EventKind) MarshalText() ([]byte, error) {
	for _, c := range allEventKinds {
		if k == c {
			return []byte(k.String()), nil
		}
	}
	return nil, fmt.Errorf("core: cannot marshal unknown event kind %d", int(k))
}

// UnmarshalText implements encoding.TextUnmarshaler over the String
// names.
func (k *EventKind) UnmarshalText(text []byte) error {
	for _, c := range allEventKinds {
		if c.String() == string(text) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("core: unknown event kind %q", text)
}

// StageEvent is one progress event emitted by an engine during a run.
// Fields beyond Kind are populated per kind; see the EventKind constants.
type StageEvent struct {
	Kind EventKind
	// Iteration is the 1-based merge round (EventMergeIteration).
	Iteration int
	// Merges is the number of pairs merged in the round
	// (EventMergeIteration).
	Merges int
	// Iterations is the completed stage's total pass/round count
	// (EventSplitDone, EventMergeDone).
	Iterations int
	// Squares is the split-stage region count (EventSplitDone,
	// EventGraphDone).
	Squares int
	// Regions is the final region count (EventMergeDone).
	Regions int
}

// Observer receives stage events during a segmentation run. Engines call
// Observe synchronously from the goroutine driving the run (for the
// message-passing engine that is a simulated node goroutine, not the
// caller's), so an Observer shared across concurrent runs must be safe for
// concurrent use. Observe must not block: it runs on the compute path.
//
// Cancelling the run's context from inside Observe is the supported way to
// abort on a progress condition; every engine notices within one
// split/merge iteration.
type Observer interface {
	Observe(StageEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(StageEvent)

// Observe implements Observer.
func (f ObserverFunc) Observe(ev StageEvent) { f(ev) }

// Run is the per-call runtime environment of a segmentation: progress goes
// to Observer (nil = no events) and Scratch offers the split stage's
// reusable buffers (nil = allocate fresh), which engines hand to
// quadsplit.Options.Scratch. A Scratch serves one run at a time; the
// Segmenter façade keeps a sync.Pool of them so repeated runs on
// same-size images stop reallocating the split's labels and square list.
// Cancellation travels separately, on the ctx argument of SegmentContext.
// The zero Run is valid: no events, fresh buffers.
type Run struct {
	Observer Observer
	Scratch  *quadsplit.Scratch
}

// Emit delivers ev to the run's observer, if any.
func (r Run) Emit(ev StageEvent) {
	if r.Observer != nil {
		r.Observer.Observe(ev)
	}
}
