package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"regiongrow"
)

// span is one timed interval at a layer boundary. The benchmark records
// spans from its own code, around its calls into each layer: spans inside
// the program are not part of this benchmark. All spans of one operation
// share a trace ID; Parent is 0 on the operation's root span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory; they are written out when the run
// ends, so recording costs an append, not I/O.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer's monotonic clock, in ns since the run began.
func (t *tracer) now() int64 { return t.at(time.Now()) }

// at converts a time to the tracer's clock.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

// reserve allocates n consecutive span IDs and returns the first.
func (t *tracer) reserve(n int) uint64 { return t.ids.Add(uint64(n)) - uint64(n) + 1 }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far, to delimit a block.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// slice returns the spans recorded between two marks.
func (t *tracer) slice(lo, hi int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans[lo:hi])
}

// write stores every span, with the run's diagnostics, as JSON.
func (t *tracer) write(path string, diag diagnostics) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Host  diagnostics `json:"host"`
		Spans []span      `json:"spans"`
	}{diag, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children cover an
// instant once, so a span's self time is never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		var covered, reach int64 = 0, s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes sums self time, in ms, by span name.
func layerTimes(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, st := range selfTimes(spans) {
		out[spans[i].Name] += float64(st) / 1e6
	}
	return out
}

// attribution checks the spans of a traced closed-loop phase against its
// wall time (summed over callers): the share of it that no layer span
// accounts for, and an error when the self times add up to more than 105%
// of it, which means an interval was counted twice.
func attribution(spans []span, wall time.Duration) (unattributed float64, err error) {
	var total float64
	for _, v := range layerTimes(spans) {
		total += v
	}
	wallMs := float64(wall) / 1e6
	if total > 1.05*wallMs {
		return 0, fmt.Errorf("layer self times sum to %.1f%% of the traced wall time: some interval is counted twice", 100*total/wallMs)
	}
	return max(0, 1-ratio(total, wallMs)), nil
}

// stageNames maps the engine's stage events to the span names of the
// layers that run them on one workload's path.
type stageNames struct{ session, split, graph, round, finalize string }

var (
	coreStages   = stageNames{"core.session", "quadsplit.split", "rag.graph", "rag.round", "core.finalize"}
	streamStages = stageNames{"stream.session", "stream.pass1", "stream.graph", "stream.round", "stream.pass2"}
	distStages   = stageNames{"distengine.session", "distengine.split", "distengine.graph", "distengine.round", "distengine.finalize"}
)

// stageCounts accumulates what stage events report across operations.
type stageCounts struct {
	ops, squares, rounds, merges int
	// alive sums the regions alive at each merge round's start, the base
	// of the round yield.
	alive int
}

func (c *stageCounts) add(o stageCounts) {
	c.ops += o.ops
	c.squares += o.squares
	c.rounds += o.rounds
	c.merges += o.merges
	c.alive += o.alive
}

// stageTracer turns one run's stage events into spans under a session
// span: each event closes the interval since the previous one. Engines
// deliver a run's events in order, so it needs no lock.
type stageTracer struct {
	tr      *tracer
	names   stageNames
	trace   uint64
	session uint64
	last    int64
	counts  stageCounts
}

// startStages opens a traced run: it reserves the run's session span ID.
func startStages(tr *tracer, names stageNames) *stageTracer {
	id := tr.reserve(1)
	return &stageTracer{tr: tr, names: names, trace: id, session: id, last: tr.now()}
}

func (s *stageTracer) closeSpan(name string) {
	now := s.tr.now()
	s.tr.record(span{Trace: s.trace, ID: s.tr.reserve(1), Parent: s.session, Name: name, Start: s.last, End: now})
	s.last = now
}

// Observe implements regiongrow.Observer.
func (s *stageTracer) Observe(ev regiongrow.StageEvent) {
	switch ev.Kind {
	case regiongrow.EventSplitStart:
		s.last = s.tr.now()
	case regiongrow.EventSplitDone:
		s.closeSpan(s.names.split)
		s.counts.squares = ev.Squares
	case regiongrow.EventGraphDone:
		s.closeSpan(s.names.graph)
	case regiongrow.EventMergeIteration:
		s.closeSpan(s.names.round)
		s.counts.alive += s.counts.squares - s.counts.merges
		s.counts.rounds++
		s.counts.merges += ev.Merges
	case regiongrow.EventMergeDone:
		s.closeSpan(s.names.finalize)
	}
}

// finish records the session span over [start, now] and returns the run's
// stage counts.
func (s *stageTracer) finish(start int64) stageCounts {
	s.tr.record(span{Trace: s.trace, ID: s.session, Name: s.names.session, Start: start, End: s.tr.now()})
	s.counts.ops = 1
	return s.counts
}
