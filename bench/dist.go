package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"regiongrow"
	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/transport"
)

// distWorkers is the cluster size: one worker per vCPU of the reference
// host, in this process, on loopback TCP.
const distWorkers = 2

// transportCounts is what the counting transport saw on the coordinator's
// side of every link: time blocked in Send and Recv, and bytes framed.
type transportCounts struct {
	sendNs, recvNs, bytes atomic.Int64
}

// countingTransport wraps a transport so every connection it dials counts
// into c. It changes no frame.
type countingTransport struct {
	transport.Transport
	c *transportCounts
}

func (t countingTransport) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	conn, err := t.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return countingConn{conn, t.c}, nil
}

type countingConn struct {
	transport.Conn
	c *transportCounts
}

// frameHeader is the length-prefixed frame's type byte and length.
const frameHeader = 5

func (c countingConn) Send(f transport.Frame, timeout time.Duration) error {
	t0 := time.Now()
	err := c.Conn.Send(f, timeout)
	c.c.sendNs.Add(int64(time.Since(t0)))
	if err == nil {
		c.c.bytes.Add(int64(frameHeader + len(f.Payload)))
	}
	return err
}

func (c countingConn) Recv(timeout time.Duration) (transport.Frame, error) {
	t0 := time.Now()
	f, err := c.Conn.Recv(timeout)
	c.c.recvNs.Add(int64(time.Since(t0)))
	if err == nil {
		c.c.bytes.Add(int64(frameHeader + len(f.Payload)))
	}
	return f, err
}

// distRun is dist-tcp2's state after set-up: in-process workers, and two
// coordinators over them — plain TCP for untraced jobs, the counting
// wrapper for traced ones.
type distRun struct {
	listeners []transport.Listener
	serving   sync.WaitGroup
	plain     *distengine.Engine
	counted   *distengine.Engine
	counts    transportCounts
	inputs    []segmentInput
}

func newDistRun(ctx context.Context, c config) (*distRun, error) {
	r := &distRun{}
	var addrs []string
	for i := 0; i < distWorkers; i++ {
		l, err := transport.TCP{}.Listen("127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.listeners = append(r.listeners, l)
		addrs = append(addrs, l.Addr())
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			_ = distengine.ServeWorker(l) // returns once the listener is closed and jobs drained
		}()
	}
	r.plain = distengine.NewOver(transport.TCP{}, addrs)
	r.counted = distengine.NewOver(countingTransport{transport.TCP{}, &r.counts}, addrs)
	for _, s := range tieSeeds(c.seed, tieSeedsPerInput) {
		for _, id := range c.images(regiongrow.Image3Circles128, regiongrow.Image4NestedRects256, regiongrow.Image6Tool256) {
			r.inputs = append(r.inputs, segmentInput{im: regiongrow.GeneratePaperImage(id),
				cfg: regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: s}})
		}
	}
	if err := withReferences(ctx, r.inputs); err != nil {
		r.close()
		return nil, err
	}
	for _, in := range r.inputs[:len(r.inputs)/tieSeedsPerInput] {
		if _, err := r.plain.SegmentContext(ctx, in.im, in.cfg, core.Run{}); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *distRun) close() {
	for _, l := range r.listeners {
		l.Close()
	}
	r.serving.Wait()
}

// distTally accumulates the jobs' communication counters.
type distTally struct {
	jobs                              int
	frames, words, exchanges, reduces int64
	rounds, retries                   int64
	stages                            stageCounts
}

// runDist runs closed-loop jobs on one caller through a coordinator and
// two workers on loopback TCP, over images 3, 4 and 6 with random ties.
func runDist(ctx context.Context, c config, tr *tracer) (*outcome, error) {
	run, setup, err := setUp(c, func() (*distRun, error) { return newDistRun(ctx, c) },
		func(r *distRun) { r.close() })
	if err != nil {
		return nil, err
	}
	defer run.close()

	var t distTally
	op := func(i int, traced bool) sample {
		in := run.inputs[i%len(run.inputs)]
		eng, rn := run.plain, core.Run{}
		var st *stageTracer
		var start int64
		if traced {
			eng = run.counted
			start = tr.now()
			st = startStages(tr, distStages)
			rn.Observer = st
		}
		t0 := time.Now()
		seg, err := eng.SegmentContext(ctx, in.im, in.cfg, rn)
		s := sample{latency: time.Since(t0), pixels: in.im.W * in.im.H}
		if traced {
			t.stages.add(st.finish(start))
		}
		if err != nil || !slices.Equal(seg.Labels, in.ref) {
			s.failed = true
			return s
		}
		t.jobs++
		t.frames += seg.Comm.Messages
		t.words += seg.Comm.Words
		t.exchanges += seg.Comm.Exchanges
		t.reduces += seg.Comm.Reduces
		t.retries += seg.Comm.Retries
		t.rounds += int64(seg.MergeIterations)
		return s
	}
	base := settledHeap()
	p := loop{callers: 1, cycle: len(run.inputs), op: op}.run(c.measure, c.traced, tr)
	o := &outcome{attempted: len(p.samples), failed: p.failures(), setup: setup}
	if !c.traced {
		closedLoop(o, p, 1, nil, o.probeCycle(base, len(run.inputs), func(i int, h *heapPeak) bool {
			in := run.inputs[i]
			seg, err := run.plain.SegmentContext(ctx, in.im, in.cfg, core.Run{Observer: h})
			return err == nil && slices.Equal(seg.Labels, in.ref)
		}))
		return o, nil
	}
	closedLoop(o, p, 1, tr, 0)
	self := layerTimes(tr.slice(p.spanLo, p.spanHi))
	jobs := float64(t.jobs)
	o.layers["distengine.frames_per_job"] = ratio(float64(t.frames), jobs)
	o.layers["distengine.words_per_job"] = ratio(float64(t.words), jobs)
	o.layers["distengine.exchanges_per_job"] = ratio(float64(t.exchanges), jobs)
	o.layers["distengine.reduces_per_job"] = ratio(float64(t.reduces), jobs)
	o.layers["distengine.merge_rounds_per_job"] = ratio(float64(t.rounds), jobs)
	o.layers["distengine.merge_ms_per_round"] = ratio(self["distengine.round"], float64(t.stages.rounds))
	o.layers["distengine.retries"] = float64(t.retries)
	traced := float64(t.stages.ops)
	o.layers["transport.send_ms_per_job"] = ratio(float64(run.counts.sendNs.Load())/1e6, traced)
	o.layers["transport.recv_wait_ms_per_job"] = ratio(float64(run.counts.recvNs.Load())/1e6, traced)
	o.layers["transport.bytes_per_job"] = ratio(float64(run.counts.bytes.Load()), traced)
	return o, nil
}
