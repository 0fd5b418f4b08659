package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload for a few operations on
// small inputs, untraced and traced, and checks that its result line
// carries every metric BENCHMARK.json names, with its unit, and no failed
// operation.
func TestSmokeEveryWorkload(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := config{seed: 3, measure: 100 * time.Millisecond, setups: 1, traced: traced, small: true}
			var out bytes.Buffer
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := runWorkload(context.Background(), w, c, path, &out, io.Discard); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s traced=%v: last line is not a result: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, r.Correct, r.Attempted, r.Failed)
			}
			want := make(map[string]string)
			for _, m := range f.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range f.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, name, m, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

func TestCommandLineRejectsUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Fatalf("run exited %d and printed %q for an unknown workload", code, out.String())
	}
}
