package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// request is one serve-fleet submission: a paper image and the random-tie
// seed it is segmented under.
type request struct {
	image int
	seed  uint64
}

// The serve-fleet key space: seeds are Zipf(s=1.1) over 1..zipfSeeds, so a
// few keys repeat often (cache hits) and a long tail is seen once or
// twice (misses), across the six paper images.
const (
	zipfS     = 1.1
	zipfSeeds = 1000
)

// requestStream returns the first n submissions of the workload seed's
// sequence. The same seed always yields the same sequence.
func requestStream(seed uint64, images, n int) []request {
	r := rand.New(rand.NewPCG(seed, 0x2195))
	z := rand.NewZipf(r, zipfS, 1, zipfSeeds-1)
	out := make([]request, n)
	for i := range out {
		out[i] = request{image: r.IntN(images), seed: 1 + z.Uint64()}
	}
	return out
}

// arrivals returns the first n send times, as offsets from the start of
// an open loop, of a Poisson process at rate per second.
func arrivals(seed uint64, rate float64, n int) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0xa771))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends the requests due within d of start on conns senders: each
// sender takes the next request in schedule order, waits until it is due,
// and sends it. send times a request from when it was due, so a stall also
// delays every request queued behind it; late records how far behind
// schedule each request went out. It returns the samples and the index of
// the first request not sent.
func openLoop(due []time.Duration, d time.Duration, conns int, send func(i int, dueAt time.Time) sample) (samples []sample, late []float64, next int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= len(due) || due[i] >= d {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				dueAt := start.Add(due[i])
				time.Sleep(time.Until(dueAt))
				lateBy := time.Since(dueAt)
				s := send(i, dueAt)
				mu.Lock()
				samples = append(samples, s)
				late = append(late, float64(lateBy)/1e6)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, late, next
}
