package main

import (
	"slices"
	"testing"
	"time"
)

func TestStreamsRepeatForASeed(t *testing.T) {
	a, b := requestStream(7, 6, 5000), requestStream(7, 6, 5000)
	if !slices.Equal(a, b) {
		t.Fatal("requestStream differs between two calls with one seed")
	}
	if slices.Equal(a, requestStream(8, 6, 5000)) {
		t.Fatal("requestStream ignores its seed")
	}
	counts := make(map[uint64]int)
	for _, r := range a {
		if r.seed < 1 || r.seed > zipfSeeds || r.image < 0 || r.image >= 6 {
			t.Fatalf("request %+v outside the key space", r)
		}
		counts[r.seed]++
	}
	// Zipf: the most popular seed is seed 1, and it is far more popular
	// than a seed in the tail.
	if counts[1] < 10*max(counts[500], 1) {
		t.Fatalf("seed 1 drawn %d times, seed 500 %d: not Zipf-skewed", counts[1], counts[500])
	}

	x, y := arrivals(7, 100, 2000), arrivals(7, 100, 2000)
	if !slices.Equal(x, y) {
		t.Fatal("arrivals differ between two calls with one seed")
	}
	if slices.Equal(x, arrivals(8, 100, 2000)) {
		t.Fatal("arrivals ignore their seed")
	}
	// 2000 arrivals at 100/s span about 20 s.
	if end := x[len(x)-1]; end < 18*time.Second || end > 22*time.Second {
		t.Fatalf("2000 arrivals at 100/s end at %v", end)
	}
}

func TestOpenLoopTimesFromTheSchedule(t *testing.T) {
	// Ten requests due 1 ms apart on one connection, each taking 5 ms: the
	// sender falls behind by about 4 ms per request, and every request's
	// latency includes the wait behind its predecessors.
	const service = 5 * time.Millisecond
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	samples, late, next := openLoop(due, time.Second, 1, func(i int, dueAt time.Time) sample {
		time.Sleep(service)
		return sample{latency: time.Since(dueAt)}
	})
	if next != len(due) || len(samples) != len(due) || len(late) != len(due) {
		t.Fatalf("sent %d of %d requests (%d samples, %d late)", next, len(due), len(samples), len(late))
	}
	for i := range samples {
		lateBy := time.Duration(late[i] * 1e6)
		if samples[i].latency < lateBy+service {
			t.Errorf("request %d: latency %v is less than lateness %v plus service", i, samples[i].latency, lateBy)
		}
		if min := time.Duration(i) * (service - time.Millisecond); lateBy < min {
			t.Errorf("request %d: late by %v, want at least %v", i, lateBy, min)
		}
	}
	// Requests due after the phase ends are not sent.
	_, _, next = openLoop([]time.Duration{0, time.Hour}, time.Second, 2, func(int, time.Time) sample { return sample{} })
	if next != 1 {
		t.Fatalf("open loop sent %d requests, want the 1 due within the phase", next)
	}
}
