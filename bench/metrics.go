package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// metricDef names one reported metric and its unit. The two catalogs
// below are the benchmark's contract with BENCHMARK.json, which lists the
// same names and units (a test holds them equal).
type metricDef struct{ name, unit string }

// endToEndMetrics are the costs a user of the system pays that this
// benchmark can hold steady on a host whose hypervisor steals CPU: every
// workload reports all of them on an untraced run. A failed or refused
// operation is not a metric here (it is usually 0, and a gated metric must
// never be 0): it is counted in the result's "failed" field instead.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_live_heap_mib", "MiB"},
}

// perLayerMetrics are reported on a traced run. The first three are the
// whole operation's wall-clock view, taken from the run's untraced blocks:
// steal moves them by far more than 10% between runs, so they are not
// gated. The rest are computed from the spans and counters the benchmark
// records at each layer boundary. A metric that is not on a workload's
// path reports 0 there.
var perLayerMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_mpx_s", "Mpx/s"},
	{"core.session_ms_per_op", "ms"},
	{"core.finalize_ms_per_op", "ms"},
	{"core.allocs_per_op", "count"},
	{"core.alloc_mib_per_op", "MiB"},
	{"quadsplit.split_ms_per_op", "ms"},
	{"quadsplit.squares_per_op", "count"},
	{"rag.graph_ms_per_op", "ms"},
	{"rag.merge_ms_per_op", "ms"},
	{"rag.merge_us_per_round", "us"},
	{"rag.round_yield", "ratio"},
	{"rag.merge_rounds_per_op", "count"},
	{"shmengine.speedup_vs_sequential", "x"},
	{"pixmap.decode_ms_per_op", "ms"},
	{"pixmap.stream_decode_mb_s", "MB/s"},
	{"stream.pass1_ms_per_op", "ms"},
	{"stream.merge_ms_per_op", "ms"},
	{"stream.pass2_ms_per_op", "ms"},
	{"stream.squares_per_op", "count"},
	{"server.hit_ratio", "ratio"},
	{"server.hit_latency_p50_ms", "ms"},
	{"server.miss_latency_p50_ms", "ms"},
	{"server.compute_ms_per_miss", "ms"},
	{"server.hash_ms_per_op", "ms"},
	{"server.encode_ms_per_op", "ms"},
	{"server.unattributed_ms_per_op", "ms"},
	{"server.rejected", "count"},
	{"server.queue_depth_max", "count"},
	{"gateway.hop_ms_p50", "ms"},
	{"gateway.failovers", "count"},
	{"gateway.errors", "count"},
	{"loadgen.late_ms_p90", "ms"},
	{"distengine.frames_per_job", "count"},
	{"distengine.words_per_job", "count"},
	{"distengine.exchanges_per_job", "count"},
	{"distengine.reduces_per_job", "count"},
	{"distengine.merge_rounds_per_job", "count"},
	{"distengine.merge_ms_per_round", "ms"},
	{"distengine.retries", "count"},
	{"transport.send_ms_per_job", "ms"},
	{"transport.recv_wait_ms_per_job", "ms"},
	{"transport.bytes_per_job", "B"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"host.cpu_steal_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ratio", "ratio"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints the catalog's metrics from values as the result line.
// A missing end-to-end metric is a bug in the workload; a missing
// per-layer metric means the layer is not on the workload's path.
func writeResult(w io.Writer, o *outcome, traced bool) error {
	defs, values := endToEndMetrics, o.endToEnd
	if traced {
		defs, values = perLayerMetrics, o.layers
	}
	r := result{Correct: o.failed == 0 && len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !traced {
			return fmt.Errorf("workload reported no %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating
// linearly between the closest ranks. xs need not be sorted; it is not
// modified. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// seesTail reports whether n samples put at least ten beyond the
// q-quantile, the rule for how far into a latency tail a sample count can
// see.
func seesTail(n int, q float64) bool { return float64(n)*(1-q) >= 10-1e-9 }

// tailQuantile is the highest of 0.99 and 0.9 that n samples see, or 0.5
// when they see neither.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.9} {
		if seesTail(n, q) {
			return q
		}
	}
	return 0.5
}

// median returns the middle of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
