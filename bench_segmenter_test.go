package regiongrow

import (
	"context"
	"testing"

	"regiongrow/internal/core"
)

// BenchmarkSegmenterReuse measures the steady state of the redesigned hot
// path: one pooled Segmenter, repeated calls on a same-size image — the
// server's cache-miss pattern. Compare its allocs/op with
// BenchmarkSegmentOneShot to see what the buffer pool buys; CI holds it
// to the budget asserted in TestSegmenterReuseAllocBudget.
func BenchmarkSegmenterReuse(b *testing.B) {
	s, err := New(SequentialEngine)
	if err != nil {
		b.Fatal(err)
	}
	im := GeneratePaperImage(Image1NestedRects128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	ctx := context.Background()
	if _, err := s.Segment(ctx, im, cfg); err != nil {
		b.Fatal(err) // warm the buffer pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Segment(ctx, im, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// segmenterReuseAllocBudget is the committed steady-state allocation
// budget for BenchmarkSegmenterReuse (image1, sequential engine, warm
// pool), about 1.5× the measured steady state. Measured 202 allocs/op
// once the graph builds each adjacency list at its final size and
// contracts lists in place (down from ≈1.5k when it grew them one insert
// at a time, ≈2.3k on the map-based RAG and ≈18.2k before the session
// redesign); the headroom absorbs runtime and map-layout jitter, not
// regressions — CI fails the benchmark smoke and the test below if the
// path creeps past it.
const segmenterReuseAllocBudget = 300

// TestSegmenterReuseAllocBudget holds the pooled hot path to the
// committed budget.
func TestSegmenterReuseAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting")
	}
	s, err := New(SequentialEngine)
	if err != nil {
		t.Fatal(err)
	}
	im := GeneratePaperImage(Image1NestedRects128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	ctx := context.Background()
	if _, err := s.Segment(ctx, im, cfg); err != nil {
		t.Fatal(err) // warm the buffer pool
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := s.Segment(ctx, im, cfg); err != nil {
			t.Error(err)
		}
	})
	if avg > segmenterReuseAllocBudget {
		t.Errorf("steady-state allocs/op = %.0f, budget %d — the pooled hot path regressed",
			avg, segmenterReuseAllocBudget)
	}
}

// BenchmarkSegmentOneShot is the pre-redesign pattern: a fresh engine and
// fresh buffers per call.
func BenchmarkSegmentOneShot(b *testing.B) {
	im := GeneratePaperImage(Image1NestedRects128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.Sequential{}).SegmentContext(context.Background(), im, cfg, core.Run{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmenterReuseNative is the native-engine variant of the reuse
// benchmark (its split runs in row bands on GOMAXPROCS goroutines).
func BenchmarkSegmenterReuseNative(b *testing.B) {
	s, err := New(NativeParallel)
	if err != nil {
		b.Fatal(err)
	}
	im := GeneratePaperImage(Image1NestedRects128)
	cfg := Config{Threshold: 10, Tie: RandomTie, Seed: 1}
	ctx := context.Background()
	if _, err := s.Segment(ctx, im, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Segment(ctx, im, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
