package main

import (
	"bufio"
	"cmp"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"regiongrow"
)

// processCPU returns the user+system CPU time this process has consumed.
// Time the hypervisor steals from the VM is not in it, which is why the
// benchmark gates on CPU per operation rather than on wall time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is one reading of the aggregate "cpu" line of /proc/stat, in
// clock ticks: time stolen by the hypervisor, idle (with iowait), and the
// total. It is zero where /proc/stat cannot be read.
type hostCPU struct{ steal, idle, total uint64 }

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return hostCPU{}
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already included in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		switch i {
		case 3, 4:
			h.idle += v
		case 7:
			h.steal = v
		}
	}
	return h
}

// stealRatio is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealRatio(a, b hostCPU) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// busySteal is the share of the time the VM's CPUs wanted to run, between
// two readings, that the hypervisor gave to someone else.
func busySteal(a, b hostCPU) float64 {
	steal := float64(b.steal - a.steal)
	return ratio(steal, float64(b.total-a.total)-float64(b.idle-a.idle))
}

// stealSlowdown is how much the CPU time of the same work grows per unit
// of busySteal. Steal itself is not counted as the process's CPU time, but
// a busy host also slows the VM while it runs: on a 2-vCPU VM whose steal
// ranged 0-72% of busy time, CPU per operation grew by 0.2-0.65 times that
// share (least-squares fits per workload over two sets of 10-12 runs; mean
// 0.4), up to 45% at the top. Dividing by 1 + 0.4·busySteal keeps most of
// that drift out of the gated CPU metrics; the raw CPU per operation is
// printed on standard error.
const stealSlowdown = 0.4

// cpuReading pairs the process's CPU time with the host's counters.
type cpuReading struct {
	proc time.Duration
	host hostCPU
}

func readCPU() cpuReading { return cpuReading{processCPU(), readHostCPU()} }

// adjustedMs is the process CPU time between a and b, in ms, with the
// host's slowdown divided out.
func adjustedMs(a, b cpuReading) float64 {
	return float64(b.proc-a.proc) / 1e6 / (1 + stealSlowdown*busySteal(a.host, b.host))
}

// The runtime/metrics samples the benchmark reads. Memory is sampled only
// this way: runtime.ReadMemStats stops the world, which slows the
// operations being measured.
const (
	mLiveBytes   = "/gc/heap/live:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mGCCPUSecond = "/cpu/classes/gc/total:cpu-seconds"
)

// runtimeReading is one read of the runtime counters the blocks diff.
type runtimeReading struct {
	allocBytes, allocObjs uint64
	gcCPU                 float64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCPUSecond}}
	metrics.Read(s)
	return runtimeReading{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

// liveHeap returns the heap bytes the last GC cycle found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: mLiveBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// poll runs f every d on its own goroutine. The returned stop function
// returns once f has run for the last time.
func poll(d time.Duration, f func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			f()
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// settledHeap returns the live heap after two forced collections: the
// baseline the benchmark itself holds before a measured phase. The second
// collection frees what sync.Pool victim caches kept alive through the
// first, such as a discarded reference session's buffers.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return liveHeap()
}

// heapPeak is the largest live heap seen at a run's checkpoints. Each
// checkpoint follows a forced collection, so its reading is what was
// reachable at that point, and repeats from run to run. Reading
// /gc/heap/live as the timed phase's own collections leave it instead sees
// only the few cycles that happen to end mid-operation: between runs it
// spread 15-160% on the small-heap workloads, and still 17-37% with a
// collection after every 1% of heap growth.
type heapPeak struct{ peak uint64 }

// newHeapPeak empties the sync.Pools a measured phase filled, so that the
// first checkpoint does not count whatever they happen to hold.
func newHeapPeak() *heapPeak {
	settledHeap()
	return &heapPeak{}
}

func (h *heapPeak) checkpoint() {
	runtime.GC()
	h.peak = max(h.peak, liveHeap())
}

// Observe implements regiongrow.Observer: a checkpoint when the split and
// the graph build finish, after merge rounds 1, 2, 4, 8, …, and when the
// run finishes.
func (h *heapPeak) Observe(ev regiongrow.StageEvent) {
	switch ev.Kind {
	case regiongrow.EventSplitDone, regiongrow.EventGraphDone, regiongrow.EventMergeDone:
		h.checkpoint()
	case regiongrow.EventMergeIteration:
		if ev.Iteration&(ev.Iteration-1) == 0 {
			h.checkpoint()
		}
	}
}

// heapChunk is how many bytes a checkpointing reader or writer passes
// between checkpoints: the stream engine's passes emit no stage events,
// and it holds most memory in the middle of them.
const heapChunk = 1 << 20

// checkpointIO counts the bytes passed through a reader or writer and
// takes a checkpoint after every heapChunk of them.
type checkpointIO struct {
	h *heapPeak
	n int
}

func (c *checkpointIO) count(n int) {
	if c.n += n; c.n >= heapChunk {
		c.n = 0
		c.h.checkpoint()
	}
}

type checkpointReader struct {
	io.Reader
	checkpointIO
}

func (r *checkpointReader) Read(p []byte) (int, error) {
	n, err := r.Reader.Read(p)
	r.count(n)
	return n, err
}

type checkpointWriter struct {
	io.Writer
	checkpointIO
}

func (w *checkpointWriter) Write(p []byte) (int, error) {
	n, err := w.Writer.Write(p)
	w.count(n)
	return n, err
}

// reader returns r with a checkpoint after every heapChunk bytes read.
func (h *heapPeak) reader(r io.Reader) io.Reader {
	return &checkpointReader{r, checkpointIO{h: h}}
}

// writer returns w with a checkpoint after every heapChunk bytes written.
func (h *heapPeak) writer(w io.Writer) io.Writer {
	return &checkpointWriter{w, checkpointIO{h: h}}
}

// mibAbove returns the peak less base, in MiB.
func (h *heapPeak) mibAbove(base uint64) float64 {
	return float64(h.peak-min(base, h.peak)) / (1 << 20)
}

// sample is one completed operation of a measured phase.
type sample struct {
	latency time.Duration
	pixels  int
	failed  bool
}

// block is the counters of one stretch of a phase run in a single mode.
type block struct {
	ops        int
	pixels     int
	wall, cpu  time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
}

func (b *block) add(o block) {
	b.ops += o.ops
	b.pixels += o.pixels
	b.wall += o.wall
	b.cpu += o.cpu
	b.allocBytes += o.allocBytes
	b.allocObjs += o.allocObjs
	b.gcCPU += o.gcCPU
}

// phase is what a closed loop measured: every sample, the counters of its
// untraced and traced blocks, and the CPU cost per operation of each
// window of its untraced blocks.
type phase struct {
	samples          []sample
	untraced, traced block
	// cpuWindows holds, in ms, the steal-adjusted CPU time per operation of
	// each run of window consecutive untraced operations (the last one may
	// be shorter).
	cpuWindows []float64
	// spanLo and spanHi delimit the spans recorded in traced blocks.
	spanLo, spanHi int
	next           int // index of the first input the phase did not use
}

// cpuPerOp is the phase's CPU cost per untraced operation, in ms: the
// median over its windows, so a burst of host contention inside one
// window moves it less than it moves the mean.
func (p *phase) cpuPerOp() float64 { return median(p.cpuWindows) }

// latencies returns the samples' latencies, in ms.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency) / 1e6
	}
	return out
}

// failures counts the failed samples.
func (p *phase) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// multiCallerWindow is how many operations one CPU window covers when
// several callers share a loop and there is no input cycle to align to.
const multiCallerWindow = 64

// loop describes a closed-loop measurement: callers goroutines each issue
// their next operation only after the previous one returns.
type loop struct {
	callers int
	// cycle is the length of the input rotation. With one caller a block
	// ends only on a cycle boundary, and a CPU window is one cycle, so
	// every block and every window runs the same mix.
	cycle int
	// first is the index of the first input to run.
	first int
	// op runs input i, traced or not.
	op func(i int, traced bool) sample
}

// window is how many operations one CPU reading covers.
func (l loop) window() int {
	if l.callers == 1 && l.cycle > 0 {
		return l.cycle
	}
	return multiCallerWindow
}

// schedule returns the modes of a phase's blocks. A traced run alternates
// untraced and traced blocks as A B B A, so drift over the phase falls
// equally on both, and the difference is the tracing overhead.
func schedule(traced bool) []bool {
	if traced {
		return []bool{false, true, true, false}
	}
	return []bool{false}
}

// run measures l for d, split into the blocks of schedule(traced).
func (l loop) run(d time.Duration, traced bool, tr *tracer) *phase {
	modes := schedule(traced)
	p := &phase{}
	next := int64(l.first)
	window := int64(l.window())
	var mu sync.Mutex
	start := time.Now()
	for bi, mode := range modes {
		end := start.Add(d * time.Duration(bi+1) / time.Duration(len(modes)))
		if mode && p.traced.ops == 0 {
			p.spanLo = tr.mark()
		}
		c0, r0, t0 := readCPU(), readRuntime(), time.Now()
		marks := []cpuReading{c0}
		started := 0 // operations begun in this block, under mu
		var ops, pixels atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < l.callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local []sample
				for {
					mu.Lock()
					i := int(next)
					// A block runs at least one operation (one cycle with one
					// caller) even when the block before it overran its end.
					over := started > 0 && !time.Now().Before(end) && (l.callers > 1 || l.cycle <= 1 || i%l.cycle == 0)
					if !over {
						next++
						started++
					}
					mu.Unlock()
					if over {
						break
					}
					s := l.op(i, mode)
					local = append(local, s)
					pixels.Add(int64(s.pixels))
					if ops.Add(1)%window == 0 {
						c := readCPU()
						mu.Lock()
						marks = append(marks, c)
						mu.Unlock()
					}
				}
				mu.Lock()
				p.samples = append(p.samples, local...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		c1, r1 := readCPU(), readRuntime()
		b := block{ops: int(ops.Load()), pixels: int(pixels.Load()), wall: time.Since(t0), cpu: c1.proc - c0.proc,
			allocBytes: r1.allocBytes - r0.allocBytes, allocObjs: r1.allocObjs - r0.allocObjs, gcCPU: r1.gcCPU - r0.gcCPU}
		if mode {
			p.traced.add(b)
			p.spanHi = tr.mark()
			continue
		}
		p.untraced.add(b)
		// Concurrent callers may append their readings out of order.
		slices.SortFunc(marks, func(a, b cpuReading) int { return cmp.Compare(a.proc, b.proc) })
		for k := 1; k < len(marks); k++ {
			p.cpuWindows = append(p.cpuWindows, adjustedMs(marks[k-1], marks[k])/float64(window))
		}
		if rest := int64(b.ops) % window; rest > 0 {
			p.cpuWindows = append(p.cpuWindows, adjustedMs(marks[len(marks)-1], c1)/float64(rest))
		}
	}
	p.next = int(next)
	return p
}
