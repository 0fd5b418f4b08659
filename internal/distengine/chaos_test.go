package distengine_test

// The chaos suite drives every failure path of the distributed engine
// through the fault-injecting transport (transport/faulty) over the
// in-process Mem transport — no real sockets, every scenario scripted
// and deterministic. The acceptance oracle is the paper's determinism
// invariant: a recovered job must produce labels byte-identical to the
// sequential engine's, because re-banding across survivors is
// indistinguishable from a first run on that membership. Scenarios that
// cannot recover must surface a clean typed error within one iteration,
// with no leaked goroutines. A closing process-cluster test repeats the
// headline scenario — kill a worker mid-merge — against four real
// worker processes.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
	"regiongrow/internal/transport"
	"regiongrow/internal/transport/faulty"
)

// chaosTuning shrinks every liveness bound so scripted faults resolve in
// milliseconds instead of the production tens of seconds.
func chaosTuning() distengine.Tuning {
	return distengine.Tuning{
		DialTimeout:       2 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		LinkTimeout:       400 * time.Millisecond,
		WriteTimeout:      400 * time.Millisecond,
		ProbeTimeout:      250 * time.Millisecond,
		MaxAttempts:       3,
	}
}

// startMemCluster launches n in-process workers named w0..w{n-1} on mem,
// with a short idle timeout so drains and dropped-job scenarios resolve
// fast. Cleanup closes the listeners and waits for the serve loops.
func startMemCluster(tb testing.TB, mem *transport.Mem, n int) []string {
	tb.Helper()
	addrs := make([]string, n)
	listeners := make([]transport.Listener, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		l, err := mem.Listen(fmt.Sprintf("w%d", i))
		if err != nil {
			tb.Fatalf("mem listen: %v", err)
		}
		listeners[i] = l
		addrs[i] = l.Addr()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = distengine.ServeWorkerOpts(l, distengine.WorkerOptions{IdleTimeout: 100 * time.Millisecond})
		}()
	}
	tb.Cleanup(func() {
		for _, l := range listeners {
			l.Close()
		}
		wg.Wait()
	})
	return addrs
}

// waitGoroutines polls until the goroutine count returns to the
// baseline, failing with a stack dump if it doesn't: every scenario —
// recovered or failed — must fully unwind coordinator and worker
// goroutines.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestChaosScenarios: one scripted fault per subtest, each on a fresh
// 3-worker in-process cluster with faults aimed at worker w1.
func TestChaosScenarios(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// In-direction frame order from each worker: reduce #1 is the
	// split-iteration all-reduce (mid-split); exchange #1 is the boundary
	// stitch; each merge round then sends an exchange-max (its head
	// all-reduce and suitor routing), a gather (its merge events) and an
	// exchange (its handovers). So exchange-max #1 is mid-merge, gather #1
	// mid-gather and exchange #2 mid-handover, all in the first round;
	// result #1 ends the job. Counters include liveness pings only for
	// the type-0 (any frame) rules.
	scenarios := []struct {
		name string
		// inject scripts the scenario; kill reports whether w1 is dead
		// afterwards (and so must sit out the recovery).
		inject func(tr *faulty.Transport, mem *transport.Mem)
		// wantErr, when set, asserts the expected clean failure; when
		// nil the scenario must recover byte-identically with ≥1 retry.
		wantErr func(t *testing.T, err error)
	}{
		{
			name: "kill worker mid-split",
			inject: func(tr *faulty.Transport, mem *transport.Mem) {
				tr.Inject("w1", faulty.Fault{Dir: faulty.In, Type: distengine.TFrameReduce, Nth: 1, Act: faulty.Cut,
					Hook: func() { mem.Kill("w1") }})
			},
		},
		{
			name: "kill worker mid-merge round",
			inject: func(tr *faulty.Transport, mem *transport.Mem) {
				tr.Inject("w1", faulty.Fault{Dir: faulty.In, Type: distengine.TFrameExchangeMax, Nth: 1, Act: faulty.Cut,
					Hook: func() { mem.Kill("w1") }})
			},
		},
		{
			name: "kill worker mid-gather",
			inject: func(tr *faulty.Transport, mem *transport.Mem) {
				tr.Inject("w1", faulty.Fault{Dir: faulty.In, Type: distengine.TFrameGather, Nth: 1, Act: faulty.Cut,
					Hook: func() { mem.Kill("w1") }})
			},
		},
		{
			name: "kill worker mid-handover",
			inject: func(tr *faulty.Transport, mem *transport.Mem) {
				tr.Inject("w1", faulty.Fault{Dir: faulty.In, Type: distengine.TFrameExchange, Nth: 2, Act: faulty.Cut,
					Hook: func() { mem.Kill("w1") }})
			},
		},
		{
			name: "kill worker at result",
			inject: func(tr *faulty.Transport, mem *transport.Mem) {
				tr.Inject("w1", faulty.Fault{Dir: faulty.In, Type: distengine.TFrameResult, Nth: 1, Act: faulty.Cut,
					Hook: func() { mem.Kill("w1") }})
			},
		},
		{
			name: "job frame dropped",
			// The worker never sees a job, idles out, and closes; the
			// coordinator loses the link and retries — on all three
			// workers, since w1 is alive and answers the probe.
			inject: func(tr *faulty.Transport, mem *transport.Mem) {
				tr.Inject("w1", faulty.Fault{Dir: faulty.Out, Type: distengine.TFrameJob, Nth: 1, Act: faulty.Drop})
			},
		},
		{
			name: "stalled peer stops reading (write deadline)",
			// Slow-loris: the first outbound frame wedges, the per-frame
			// write bound fires, and the job retries on a healed link.
			inject: func(tr *faulty.Transport, mem *transport.Mem) {
				tr.Inject("w1", faulty.Fault{Dir: faulty.Out, Nth: 1, Act: faulty.Stall})
			},
		},
		{
			name: "stalled peer goes silent (read deadline)",
			// The inbound direction wedges mid-job: no frames, no pings;
			// the link timeout declares the worker lost.
			inject: func(tr *faulty.Transport, mem *transport.Mem) {
				tr.Inject("w1", faulty.Fault{Dir: faulty.In, Nth: 2, Act: faulty.Stall})
			},
		},
		{
			name: "corrupt frame is a clean protocol error",
			// Corruption is not a transport loss: retrying cannot help,
			// so the job must fail immediately with the decode error.
			inject: func(tr *faulty.Transport, mem *transport.Mem) {
				tr.Inject("w1", faulty.Fault{Dir: faulty.In, Type: distengine.TFrameReduce, Nth: 1, Act: faulty.Corrupt})
			},
			wantErr: func(t *testing.T, err error) {
				if err == nil {
					t.Fatal("corrupt frame: job succeeded, want a protocol error")
				}
				if errors.Is(err, distengine.ErrWorkerLost) {
					t.Fatalf("corrupt frame classified retryable: %v", err)
				}
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			mem := transport.NewMem()
			addrs := startMemCluster(t, mem, 3)
			tr := faulty.New(mem)
			eng := distengine.NewOver(tr, addrs)
			eng.SetTuning(chaosTuning())
			sc.inject(tr, mem)
			before := runtime.NumGoroutine()

			seg, err := eng.SegmentContext(context.Background(), im, cfg, core.Run{})
			if sc.wantErr != nil {
				sc.wantErr(t, err)
				waitGoroutines(t, before)
				return
			}
			if err != nil {
				t.Fatalf("scenario did not recover: %v", err)
			}
			if !seg.EqualLabels(want) {
				t.Error("recovered labels differ from sequential")
			}
			if seg.Comm == nil || seg.Comm.Retries == 0 {
				t.Errorf("recovery not recorded: %+v", seg.Comm)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestChaosPartitionMidMerge: partitioning the coordinator off the
// whole cluster mid-merge fails the job with the typed no-workers error
// (every retry probe fails), leaves no goroutines behind, and the same
// engine recovers fully once the partition heals.
func TestChaosPartitionMidMerge(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}

	mem := transport.NewMem()
	addrs := startMemCluster(t, mem, 3)
	tr := faulty.New(mem)
	eng := distengine.NewOver(tr, addrs)
	eng.SetTuning(chaosTuning())
	before := runtime.NumGoroutine()

	// Cut the whole coordinator side at w1's first exchange-max: the first
	// merge round's head all-reduce and suitor routing.
	tr.Inject("w1", faulty.Fault{Dir: faulty.In, Type: distengine.TFrameExchangeMax, Nth: 1, Act: faulty.Cut,
		Hook: tr.Partition})
	_, err = eng.SegmentContext(context.Background(), im, cfg, core.Run{})
	if !errors.Is(err, distengine.ErrNoWorkers) {
		t.Fatalf("partitioned job: err = %v, want ErrNoWorkers", err)
	}
	waitGoroutines(t, before)

	// Heal: the workers abandoned the job when their links died and are
	// still serving; the same engine works again, with no retries needed.
	tr.Heal()
	seg, err := eng.SegmentContext(context.Background(), im, cfg, core.Run{})
	if err != nil {
		t.Fatalf("post-heal segment: %v", err)
	}
	if !seg.EqualLabels(want) {
		t.Error("post-heal labels differ from sequential")
	}
	if seg.Comm.Retries != 0 {
		t.Errorf("post-heal run recorded %d retries, want 0", seg.Comm.Retries)
	}
	waitGoroutines(t, before)
}

// TestChaosDynamicMembership: workers join and leave between jobs with
// no engine restart — the segmentation stays byte-identical throughout
// (the determinism invariant holds for every membership), Health tracks
// the probes, and a removed-then-killed worker costs nothing.
func TestChaosDynamicMembership(t *testing.T) {
	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.SmallestID}
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}

	mem := transport.NewMem()
	addrs := startMemCluster(t, mem, 2)
	eng := distengine.NewOver(mem, addrs)
	eng.SetTuning(chaosTuning())

	run := func(stage string) *core.Segmentation {
		t.Helper()
		seg, err := eng.SegmentContext(context.Background(), im, cfg, core.Run{})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !seg.EqualLabels(want) {
			t.Errorf("%s: labels differ from sequential", stage)
		}
		return seg
	}
	run("initial 2-worker cluster")

	// Join: a third worker comes up and is added live.
	l, err := mem.Listen("w-joined")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = distengine.ServeWorkerOpts(l, distengine.WorkerOptions{IdleTimeout: 100 * time.Millisecond})
	}()
	t.Cleanup(func() { l.Close(); <-done })
	if !eng.AddMember("w-joined") {
		t.Fatal("AddMember(w-joined) = false")
	}
	if eng.AddMember("w-joined") {
		t.Error("duplicate AddMember = true")
	}
	if got := len(eng.Members()); got != 3 {
		t.Fatalf("members after join = %d, want 3", got)
	}
	for _, h := range eng.Health(context.Background()) {
		if !h.Healthy {
			t.Errorf("member %s unhealthy after join", h.Addr)
		}
	}
	run("after join")

	// Leave: the original first worker is removed, then dies; the next
	// job must neither touch it nor need a retry.
	if !eng.RemoveMember(addrs[0]) {
		t.Fatalf("RemoveMember(%s) = false", addrs[0])
	}
	mem.Kill(addrs[0])
	seg := run("after leave")
	if seg.Comm.Retries != 0 {
		t.Errorf("post-leave run recorded %d retries, want 0", seg.Comm.Retries)
	}
	if got := eng.Name(); got != "distributed/2w" {
		t.Errorf("engine name after leave = %q, want distributed/2w", got)
	}
}

// TestChaosProcessWorkerKilledMidMerge repeats the headline scenario on
// a real 4-process TCP cluster: SIGKILL one worker process at the first
// merge-iteration event; the coordinator must retry on the three
// survivors and still produce sequential-identical labels.
func TestChaosProcessWorkerKilledMidMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test skipped in -short mode")
	}
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	want, err := segment(core.Sequential{}, im, cfg)
	if err != nil {
		t.Fatal(err)
	}

	addrs, cmds := startProcessCluster(t, 4)
	eng := distengine.New(addrs)
	eng.SetTuning(distengine.Tuning{ProbeTimeout: time.Second})

	var once sync.Once
	run := core.Run{Observer: core.ObserverFunc(func(ev core.StageEvent) {
		if ev.Kind == core.EventMergeIteration {
			once.Do(func() {
				if err := cmds[2].Process.Signal(syscall.SIGKILL); err != nil {
					t.Errorf("killing worker 2: %v", err)
				}
			})
		}
	})}
	seg, err := eng.SegmentContext(context.Background(), im, cfg, run)
	if err != nil {
		t.Fatalf("job did not survive the worker kill: %v", err)
	}
	if !seg.EqualLabels(want) {
		t.Error("recovered labels differ from sequential")
	}
	if seg.Comm == nil || seg.Comm.Retries == 0 {
		t.Errorf("recovery not recorded: %+v", seg.Comm)
	}
	_ = cmds[2].Wait() // reap; cleanup skips exited processes

	// The three survivors are intact and still serve jobs.
	for i, cmd := range cmds {
		if i != 2 && cmd.ProcessState != nil {
			t.Errorf("surviving worker %d exited", i)
		}
	}
	seg, err = eng.SegmentContext(context.Background(), im, cfg, core.Run{})
	if err != nil {
		t.Fatalf("post-recovery segment: %v", err)
	}
	if !seg.EqualLabels(want) {
		t.Error("post-recovery labels differ from sequential")
	}
}
