// Command bench is the repository's benchmark. It runs one of five
// workloads against the system's public entry points (the regiongrow
// facade, server.New, gateway.New, distengine.NewOver and ServeWorker,
// and pixmap), checks every output against the sequential reference, and
// prints one JSON result line:
//
//	bash bench/run.sh --workload paper-mixed --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) records spans around each call into a layer and reports the
// per-layer metrics computed from them. See README.md for the metric
// dictionary and the reason for each workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"regiongrow"
)

// config is one run's settings.
type config struct {
	seed    uint64
	measure time.Duration
	traced  bool
	// setups is how many times a run builds its workload state; setup_s is
	// the median.
	setups int
	// small shrinks every workload's inputs to a few milliseconds of work
	// per operation, for the smoke test; the command line never sets it.
	small bool
}

func defaultConfig() config {
	return config{seed: 1, measure: 10 * time.Second, setups: 3}
}

// sides picks an image side: full for the command line, small for the
// smoke test.
func (c config) sides(full, small int) int {
	if c.small {
		return small
	}
	return full
}

// images picks the paper images a workload runs: full for the command
// line, the two cheapest 128² images for the smoke test.
func (c config) images(full ...regiongrow.PaperImageID) []regiongrow.PaperImageID {
	if c.small {
		return []regiongrow.PaperImageID{regiongrow.Image1NestedRects128, regiongrow.Image2Rects128}
	}
	return full
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	// problems lists failed checks other than per-operation mismatches.
	problems []string
	setup    setupCost
	// latencies (ms) are the wall latencies of the phase the latency
	// metrics describe; on a traced run they include the traced
	// operations, whose overhead trace.overhead_ratio reports. mpxPerS is
	// the throughput of the untraced operations, and rawCPUms their mean
	// CPU time, unadjusted.
	latencies []float64
	mpxPerS   float64
	rawCPUms  float64
	// endToEnd and layers hold the metrics only the workload can compute;
	// runWorkload adds the ones every workload shares.
	endToEnd map[string]float64
	layers   map[string]float64
}

// workload is one benchmark input set and the loop that drives it.
type workload struct {
	name string
	run  func(ctx context.Context, c config, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"paper-mixed", runPaperMixed},
	{"large-native", runLargeNative},
	{"stream-16mp", runStream},
	{"serve-fleet", runServeFleet},
	{"dist-tcp2", runDist},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	c := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	fs.Uint64Var(&c.seed, "seed", c.seed, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", c.measure.Seconds(), "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run printing per-layer metrics")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default: the temp directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	c.traced = *trace == 1
	c.measure = time.Duration(*seconds * float64(time.Second))

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	for _, w := range selected {
		path := *spans
		if path == "" {
			path = filepath.Join(os.TempDir(), fmt.Sprintf("regiongrow-bench-spans-%s-%d.json", w.name, c.seed))
		}
		if err := runWorkload(context.Background(), w, c, path, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

// diagnostics describe the host a run measured on; every run prints them.
type diagnostics struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Steal      float64 `json:"cpu_steal_ratio"`
	BusySteal  float64 `json:"busy_steal_ratio"`
}

func runWorkload(ctx context.Context, w workload, c config, spansPath string, stdout, stderr io.Writer) error {
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	h0 := readHostCPU()
	o, err := w.run(ctx, c, tr)
	if err != nil {
		return err
	}
	h1 := readHostCPU()
	diag := diagnostics{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Steal: stealRatio(h0, h1), BusySteal: busySteal(h0, h1)}
	fmt.Fprintf(stderr, "bench: %s seed=%d nproc=%d gomaxprocs=%d go=%s cpu_steal=%.3f busy_steal=%.3f ops=%d failed=%d\n",
		w.name, c.seed, diag.Nproc, diag.GOMAXPROCS, diag.Go, diag.Steal, diag.BusySteal, o.attempted, o.failed)
	if diag.Steal > 0.2 {
		fmt.Fprintf(stderr, "bench: warning: the hypervisor stole %.0f%% of host CPU time during the run; wall times are inflated and CPU per operation rises with host contention too\n", 100*diag.Steal)
	}
	tail := ""
	if q := tailQuantile(len(o.latencies)); q > 0.5 {
		tail = fmt.Sprintf(", p%g %.3f ms", 100*q, quantile(o.latencies, q))
	}
	fmt.Fprintf(stderr, "bench: %s: wall latency p50 %.3f ms%s over %d ops; %.3f Mpx/s; raw CPU %.3f ms/op; set-up %.3f s wall\n",
		w.name, quantile(o.latencies, 0.5), tail, len(o.latencies), o.mpxPerS, o.rawCPUms, o.setup.wall)
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, p)
	}
	if !c.traced {
		o.endToEnd["setup_s"] = o.setup.cpu
		return writeResult(stdout, o, false)
	}
	o.layers["latency_p50_ms"] = quantile(o.latencies, 0.5)
	if seesTail(len(o.latencies), 0.9) {
		o.layers["latency_p90_ms"] = quantile(o.latencies, 0.9)
	}
	o.layers["throughput_mpx_s"] = o.mpxPerS
	o.layers["host.cpu_steal_ratio"] = diag.Steal
	if err := tr.write(spansPath, diag); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stderr, "bench: %s: spans written to %s\n", w.name, spansPath)
	return writeResult(stdout, o, true)
}

// setupCost is the median cost of building a workload's state: from the
// start of a build to the point the first measured operation can run,
// warm-up included.
type setupCost struct {
	// cpu is steal-adjusted process CPU seconds, the gated setup_s: the
	// hypervisor's steal moved the wall time's median by 27-39% between
	// sets of runs.
	cpu  float64
	wall float64
}

// setUp builds a workload's state c.setups times, tearing down all but
// the last build, and returns that build with the median build cost.
func setUp[T any](c config, build func() (T, error), teardown func(T)) (T, setupCost, error) {
	var st T
	var cpu, wall []float64
	for i := 0; i < max(c.setups, 1); i++ {
		if i > 0 {
			teardown(st)
		}
		c0, t0 := readCPU(), time.Now()
		var err error
		if st, err = build(); err != nil {
			return st, setupCost{}, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, adjustedMs(c0, readCPU())/1e3)
	}
	return st, setupCost{cpu: median(cpu), wall: median(wall)}, nil
}

// probeCycle runs inputs 0..n-1 once more, untimed, through check with a
// heap checkpoint observer, counts them into o, and returns the largest
// live heap a checkpoint saw, less base, in MiB. check reports whether the
// output matched its reference.
func (o *outcome) probeCycle(base uint64, n int, check func(i int, h *heapPeak) bool) float64 {
	h := newHeapPeak()
	for i := 0; i < n; i++ {
		o.attempted++
		if !check(i, h) {
			o.failed++
		}
	}
	return h.mibAbove(base)
}

// closedLoop fills what every closed-loop workload reports from its phase:
// its wall-clock view, and either the CPU cost and heap probe result, or,
// on a traced run, the GC's share of CPU, the tracing overhead, and the
// share of the traced wall time (summed over callers) that no layer span
// accounts for.
func closedLoop(o *outcome, p *phase, callers int, tr *tracer, heapMiB float64) {
	o.latencies = latencies(p.samples)
	o.mpxPerS = ratio(float64(p.untraced.pixels)/1e6, p.untraced.wall.Seconds())
	o.rawCPUms = ratio(float64(p.untraced.cpu)/1e6, float64(p.untraced.ops))
	if tr == nil {
		o.endToEnd = map[string]float64{"cpu_ms_per_op": p.cpuPerOp(), "peak_live_heap_mib": heapMiB}
		return
	}
	all := p.untraced
	all.add(p.traced)
	o.layers = map[string]float64{
		"runtime.gc_cpu_ratio": ratio(all.gcCPU, all.cpu.Seconds()),
		"trace.overhead_ratio": ratio(ratio(float64(p.traced.cpu), float64(p.traced.ops)),
			ratio(float64(p.untraced.cpu), float64(p.untraced.ops))),
	}
	un, err := attribution(tr.slice(p.spanLo, p.spanHi), time.Duration(callers)*p.traced.wall)
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
	o.layers["trace.unattributed_ratio"] = un
}
