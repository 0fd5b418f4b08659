package main

import (
	"math"
	"testing"
	"time"
)

// spin burns about d of CPU, so every operation has a CPU cost to read.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func TestLoopEndsBlocksOnCycleBoundaries(t *testing.T) {
	const cycle = 3
	l := loop{callers: 1, cycle: cycle, op: func(i int, traced bool) sample {
		spin(200 * time.Microsecond)
		return sample{pixels: 1}
	}}
	for _, traced := range []bool{false, true} {
		p := l.run(20*time.Millisecond, traced, newTracer())
		if p.untraced.ops == 0 || p.untraced.ops%cycle != 0 || p.traced.ops%cycle != 0 {
			t.Fatalf("traced=%v: blocks ran %d untraced and %d traced ops, want whole cycles of %d",
				traced, p.untraced.ops, p.traced.ops, cycle)
		}
		// One CPU window per untraced cycle, each about one op's spin.
		if len(p.cpuWindows) != p.untraced.ops/cycle {
			t.Fatalf("traced=%v: %d CPU windows for %d untraced ops", traced, len(p.cpuWindows), p.untraced.ops)
		}
		if c := p.cpuPerOp(); c < 0.02 || c > 5 {
			t.Fatalf("traced=%v: cpuPerOp = %v ms, want about 0.2", traced, c)
		}
		if traced != (p.traced.ops > 0) {
			t.Fatalf("traced=%v: %d traced ops", traced, p.traced.ops)
		}
	}
}

func TestAdjustedCPUDividesOutBusySteal(t *testing.T) {
	// 400 ticks pass: 100 idle, 120 stolen, 180 busy, so 40% of the time
	// the CPUs wanted to run was stolen.
	a := cpuReading{proc: time.Second, host: hostCPU{steal: 10, idle: 50, total: 1000}}
	b := cpuReading{proc: 3 * time.Second, host: hostCPU{steal: 130, idle: 150, total: 1400}}
	if s := busySteal(a.host, b.host); s != 0.4 {
		t.Fatalf("busySteal = %v, want 0.4", s)
	}
	if got, want := adjustedMs(a, b), 2000/(1+stealSlowdown*0.4); math.Abs(got-want) > 1e-9 {
		t.Fatalf("adjustedMs = %v, want %v", got, want)
	}
	// Without /proc/stat the readings are zero and nothing is adjusted.
	if got := adjustedMs(cpuReading{}, cpuReading{proc: time.Millisecond}); got != 1 {
		t.Fatalf("adjustedMs without host counters = %v, want 1", got)
	}
}

func TestLoopWindowsCoverEveryOpWithSeveralCallers(t *testing.T) {
	l := loop{callers: 2, op: func(i int, traced bool) sample {
		spin(100 * time.Microsecond)
		return sample{}
	}}
	p := l.run(30*time.Millisecond, false, nil)
	want := (p.untraced.ops + multiCallerWindow - 1) / multiCallerWindow
	if len(p.cpuWindows) != want {
		t.Fatalf("%d CPU windows for %d ops, want %d", len(p.cpuWindows), p.untraced.ops, want)
	}
	for _, w := range p.cpuWindows {
		if w < 0 {
			t.Fatalf("negative CPU window %v", w)
		}
	}
}
