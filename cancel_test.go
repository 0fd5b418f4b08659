package regiongrow

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// cancelKinds covers all four execution models: the sequential reference,
// data-parallel (CM-2 and CM-5 CMF share the code path), message-passing
// (both schemes), and the native shared-memory engine.
var cancelKinds = []EngineKind{
	SequentialEngine,
	CM2DataParallel8K,
	CM5LinearPermutation,
	CM5Async,
	NativeParallel,
}

// cancelImage is small enough to run every engine quickly but merges over
// several iterations under SmallestID (the serializing policy), so there
// is a real mid-merge window to cancel in.
func cancelImage() (*Image, Config) {
	return GeneratePaperImage(Image2Rects128), Config{Threshold: 10, Tie: SmallestIDTie}
}

// TestCancelBeforeStart: a context cancelled before the call returns
// ctx.Err() from every engine without computing anything.
func TestCancelBeforeStart(t *testing.T) {
	im, cfg := cancelImage()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range cancelKinds {
		s, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := s.Segment(ctx, im, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", kind, err)
		}
		if seg != nil {
			t.Errorf("%v: returned a segmentation alongside the cancellation", kind)
		}
	}
}

// cancelAtObserver cancels the run the first time an event of the trigger
// kind is observed and counts trigger-kind events seen afterwards.
type cancelAtObserver struct {
	trigger EventKind
	cancel  context.CancelFunc
	fired   atomic.Bool
	after   atomic.Int64
}

func (o *cancelAtObserver) Observe(ev StageEvent) {
	if ev.Kind != o.trigger {
		return
	}
	if o.fired.CompareAndSwap(false, true) {
		o.cancel()
		return
	}
	o.after.Add(1)
}

// TestCancelMidSplit cancels at the split stage's first event and checks
// every engine aborts with ctx.Err() without reaching the merge stage.
func TestCancelMidSplit(t *testing.T) {
	im, cfg := cancelImage()
	for _, kind := range cancelKinds {
		t.Run(kind.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			obs := &cancelAtObserver{trigger: EventSplitStart, cancel: cancel}
			var merged atomic.Bool
			watch := ObserverFunc(func(ev StageEvent) {
				obs.Observe(ev)
				if ev.Kind == EventMergeIteration || ev.Kind == EventMergeDone {
					merged.Store(true)
				}
			})
			s, err := New(kind, WithObserver(watch))
			if err != nil {
				t.Fatal(err)
			}
			seg, err := s.Segment(ctx, im, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if seg != nil {
				t.Fatal("returned a segmentation alongside the cancellation")
			}
			if merged.Load() {
				t.Fatal("run cancelled at split start still reached the merge stage")
			}
		})
	}
}

// TestCancelMidMerge cancels inside the first merge iteration's event and
// checks every engine aborts with ctx.Err() within one further iteration:
// no second EventMergeIteration is ever emitted.
func TestCancelMidMerge(t *testing.T) {
	im, cfg := cancelImage()
	for _, kind := range cancelKinds {
		t.Run(kind.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			obs := &cancelAtObserver{trigger: EventMergeIteration, cancel: cancel}
			s, err := New(kind, WithObserver(obs))
			if err != nil {
				t.Fatal(err)
			}
			seg, err := s.Segment(ctx, im, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if seg != nil {
				t.Fatal("returned a segmentation alongside the cancellation")
			}
			if n := obs.after.Load(); n != 0 {
				t.Fatalf("%d merge iterations ran after cancellation, want 0 (abort within one iteration)", n)
			}
		})
	}
}

// TestCancelLeaksNoGoroutines drives the two engines that spawn real
// goroutines (the native split and graph-build workers and the
// simulated message-passing cluster) through mid-merge cancellations and
// checks the goroutine count settles back to its baseline: cancelled
// workers and nodes all drain.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	im, cfg := cancelImage()
	baseline := runtime.NumGoroutine()
	for _, kind := range []EngineKind{NativeParallel, CM5Async} {
		for i := 0; i < 3; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			obs := &cancelAtObserver{trigger: EventMergeIteration, cancel: cancel}
			s, err := New(kind, WithObserver(obs))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Segment(ctx, im, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: err = %v, want context.Canceled", kind, err)
			}
			cancel()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d at baseline, %d after cancelled runs — engine goroutines leaked",
		baseline, runtime.NumGoroutine())
}

// TestCancelViaDeadline: a deadline that fires mid-run surfaces as
// context.DeadlineExceeded, the error servers map to 504.
func TestCancelViaDeadline(t *testing.T) {
	im, cfg := cancelImage()
	s, err := New(SequentialEngine)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Segment(ctx, im, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
