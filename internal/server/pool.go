package server

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Submission errors.
var (
	// ErrQueueFull is returned by Enqueue when the bounded queue has no
	// free slot; HTTP handlers translate it to 429 Too Many Requests.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrClosed is returned by Enqueue after Close.
	ErrClosed = errors.New("server: pool closed")
)

// Pool is a bounded persistent worker pool: a fixed number of goroutines
// run closures from a fixed-depth queue. Enqueue is non-blocking — a full
// queue rejects immediately with ErrQueueFull, which is the service's
// backpressure signal — and Close runs every closure already accepted
// before returning, which is what makes graceful shutdown lossless. The
// pool knows nothing of segmentation: each closure the Server enqueues
// does one whole job, down to settling its record.
type Pool struct {
	tasks    chan func()
	workers  int
	wg       sync.WaitGroup
	mu       sync.RWMutex
	closed   bool
	inflight atomic.Int64
}

// NewPool starts workers goroutines over a queue of the given depth.
// Non-positive workers or depth panic: the Server constructor is
// responsible for defaulting them.
func NewPool(workers, depth int) *Pool {
	if workers <= 0 || depth <= 0 {
		panic("server: NewPool needs positive workers and depth")
	}
	p := &Pool{tasks: make(chan func(), depth), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for task := range p.tasks {
		p.inflight.Add(1)
		task()
		p.inflight.Add(-1)
	}
}

// Enqueue places task on the queue without waiting for it. It returns
// ErrQueueFull when the queue has no free slot and ErrClosed after Close;
// once it returns nil, task is guaranteed to run (Close drains the queue
// before stopping the workers).
func (p *Pool) Enqueue(task func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.tasks <- task:
		return nil
	default:
		return ErrQueueFull
	}
}

// QueueDepth reports the number of closures waiting for a worker.
func (p *Pool) QueueDepth() int { return len(p.tasks) }

// QueueCapacity reports the configured queue depth.
func (p *Pool) QueueCapacity() int { return cap(p.tasks) }

// InFlight reports the number of closures currently running on workers.
func (p *Pool) InFlight() int64 { return p.inflight.Load() }

// Workers reports the worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops accepting work, lets the workers run every already-queued
// closure, and returns when the last one has finished. Safe to call more
// than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}
