package mpvm

import (
	"fmt"
	"sort"
	"sync"

	"regiongrow/internal/machine"
)

// shutdownGen marks a cluster torn down by a node panic; blocked peers
// observe it and fail fast instead of deadlocking.
const shutdownGen = -1 << 30

// Message is one typed message between nodes.
type Message struct {
	Src, Dst int
	Tag      int
	Data     []int32
	// arrive is the simulated time the message is available at the
	// receiver.
	arrive float64
}

// Cluster is a running set of nodes.
type Cluster struct {
	Q    int
	prof *machine.Profile

	mu      sync.Mutex
	cond    *sync.Cond
	inboxes [][]Message

	// Barrier state.
	barGen   int
	barCount int
	barMax   float64 // max clock among arrivers of the current episode
	resolved float64 // result of the last completed episode

	// Collective payload state (guarded by mu, reset lazily per episode).
	contrib   int
	gatherBuf [][]int32
	reduceMax int64
	reduceSum int64

	stats ClusterStats
}

// ClusterStats aggregates communication counters across the run.
type ClusterStats struct {
	Messages  int64 // point-to-point messages delivered
	Words     int64 // 32-bit words moved point-to-point
	Barriers  int64 // barrier episodes
	Gathers   int64 // global concatenations
	Reduces   int64 // global reductions
	LPSteps   int64 // linear-permutation ring steps executed
	Exchanges int64 // irregular exchanges performed
}

// Node is the handle a node program uses.
type Node struct {
	Rank int
	cl   *Cluster
	// clock is the node's simulated time; only the owning goroutine
	// touches it outside collectives.
	clock float64
	// queue holds received-but-unmatched messages.
	queue []Message
}

// Scheme selects the irregular-exchange implementation.
type Scheme int

const (
	// LP is the synchronous Linear Permutation scheme.
	LP Scheme = iota
	// Async is the asynchronous direct-send scheme.
	Async
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	if s == LP {
		return "LP"
	}
	return "Async"
}

// Run executes f on q nodes and returns the per-node simulated finish
// times and aggregate statistics. A panic in any node program is recovered
// and returned as an error.
func Run(q int, prof *machine.Profile, f func(n *Node) error) (clocks []float64, stats ClusterStats, err error) {
	if q <= 0 {
		return nil, ClusterStats{}, fmt.Errorf("mpvm: need at least one node, got %d", q)
	}
	cl := &Cluster{Q: q, prof: prof, inboxes: make([][]Message, q)}
	cl.cond = sync.NewCond(&cl.mu)

	clocks = make([]float64, q)
	errs := make([]error, q)
	var wg sync.WaitGroup
	for r := 0; r < q; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			n := &Node{Rank: rank, cl: cl}
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpvm: node %d panicked: %v", rank, p)
					cl.mu.Lock()
					cl.barGen = shutdownGen
					cl.mu.Unlock()
					cl.cond.Broadcast()
				}
				clocks[rank] = n.clock
			}()
			errs[rank] = f(n)
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return clocks, cl.stats, e
		}
	}
	return clocks, cl.stats, nil
}

// Clock returns the node's simulated time in seconds.
func (n *Node) Clock() float64 { return n.clock }

// Charge adds ops scalar operations of node compute to the simulated
// clock.
func (n *Node) Charge(ops int) { n.clock += float64(ops) * n.cl.prof.TNode }

// ChargeTime adds raw simulated seconds (used by engine-level cost hooks).
func (n *Node) ChargeTime(sec float64) { n.clock += sec }

// Send transmits data to node dst with the given tag. The send is
// buffered (asynchronous): the sender pays the injection cost and
// continues.
func (n *Node) Send(dst, tag int, data []int32) {
	if dst < 0 || dst >= n.cl.Q {
		panic(fmt.Sprintf("mpvm: send to invalid rank %d", dst))
	}
	n.clock += n.cl.prof.MsgCost(len(data))
	msg := Message{Src: n.Rank, Dst: dst, Tag: tag, Data: data, arrive: n.clock}
	cl := n.cl
	cl.mu.Lock()
	cl.inboxes[dst] = append(cl.inboxes[dst], msg)
	cl.stats.Messages++
	cl.stats.Words += int64(len(data))
	cl.mu.Unlock()
	cl.cond.Broadcast()
}

// Recv blocks until a message with the given tag arrives from src
// (src < 0 accepts any sender) and returns it. The receiver's clock
// advances to at least the message's arrival time plus the receive
// overhead.
func (n *Node) Recv(src, tag int) Message {
	m := n.await(src, tag)
	n.acceptClock(m)
	return m
}

// await blocks until a message with the given tag arrives from src
// (src < 0 accepts any sender) and dequeues it without touching the
// clock.
func (n *Node) await(src, tag int) Message {
	if m, ok := n.takeQueued(src, tag); ok {
		return m
	}
	cl := n.cl
	for {
		cl.mu.Lock()
		if cl.barGen == shutdownGen {
			cl.mu.Unlock()
			panic("mpvm: cluster shut down while receiving")
		}
		if box := cl.inboxes[n.Rank]; len(box) > 0 {
			n.queue = append(n.queue, box...)
			cl.inboxes[n.Rank] = nil
			cl.mu.Unlock()
			if m, ok := n.takeQueued(src, tag); ok {
				return m
			}
			continue
		}
		cl.cond.Wait()
		cl.mu.Unlock()
	}
}

// takeQueued removes and returns the first queued message matching
// (src, tag).
func (n *Node) takeQueued(src, tag int) (Message, bool) {
	for i, m := range n.queue {
		if m.Tag == tag && (src < 0 || m.Src == src) {
			n.queue = append(n.queue[:i], n.queue[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}

func (n *Node) acceptClock(m Message) {
	if m.arrive > n.clock {
		n.clock = m.arrive
	}
	n.clock += n.cl.prof.MsgCost(len(m.Data)) // receive-side copy cost
}

// Barrier synchronises all nodes; every clock advances to the episode
// maximum plus the barrier cost.
//
// Clock safety: a node racing ahead to the next barrier contributes to a
// fresh barMax, never the one current waiters read; and generation g+1
// cannot complete before every generation-g waiter has exited, because
// completing g+1 requires all Q nodes to arrive at it.
func (n *Node) Barrier() {
	cl := n.cl
	cl.mu.Lock()
	if cl.barGen == shutdownGen {
		// A peer panicked before this node arrived: no episode can ever
		// complete, and no one is left to wake a waiter.
		cl.mu.Unlock()
		panic("mpvm: cluster shut down at barrier")
	}
	if n.clock > cl.barMax {
		cl.barMax = n.clock
	}
	gen := cl.barGen
	cl.barCount++
	if cl.barCount == cl.Q {
		cl.barCount = 0
		cl.resolved = cl.barMax
		cl.barMax = 0
		cl.barGen++
		cl.stats.Barriers++
		cl.cond.Broadcast()
	} else {
		for cl.barGen == gen {
			cl.cond.Wait()
			if cl.barGen == shutdownGen {
				cl.mu.Unlock()
				panic("mpvm: cluster shut down at barrier")
			}
		}
	}
	n.clock = cl.resolved + cl.prof.TBarrier
	cl.mu.Unlock()
}

// resetCollective lazily clears the shared collective buffers at the
// start of an episode. Called with mu held by the episode's first
// contributor; the double barrier in the collectives guarantees episodes
// never overlap.
func (cl *Cluster) resetCollective() {
	if cl.contrib == cl.Q || cl.contrib == 0 {
		cl.contrib = 0
		cl.gatherBuf = make([][]int32, cl.Q)
		cl.reduceMax = -1 << 62
		cl.reduceSum = 0
	}
}

// AllGather performs a global concatenation: every node contributes a
// slice and receives all contributions indexed by rank. Cost: a
// logarithmic gather/broadcast tree over the total payload.
func (n *Node) AllGather(data []int32) [][]int32 {
	cl := n.cl
	cl.mu.Lock()
	cl.resetCollective()
	cl.gatherBuf[n.Rank] = data
	cl.contrib++
	cl.stats.Gathers++
	cl.mu.Unlock()
	n.Barrier()
	cl.mu.Lock()
	out := make([][]int32, cl.Q)
	copy(out, cl.gatherBuf)
	total := 0
	for _, d := range out {
		total += len(d)
	}
	cl.mu.Unlock()
	n.Barrier()
	// Concatenation rides the control network: a barrier-class cost plus
	// the data volume at per-word speed.
	n.clock += cl.prof.TBarrier + cl.prof.Beta*float64(total)
	return out
}

// AllReduceMax performs a global maximum reduction.
func (n *Node) AllReduceMax(v int) int {
	cl := n.cl
	cl.mu.Lock()
	cl.resetCollective()
	if int64(v) > cl.reduceMax {
		cl.reduceMax = int64(v)
	}
	cl.contrib++
	cl.stats.Reduces++
	cl.mu.Unlock()
	n.Barrier()
	cl.mu.Lock()
	out := int(cl.reduceMax)
	cl.mu.Unlock()
	n.Barrier()
	n.clock += cl.prof.TBarrier // hardware reduction on the control network
	return out
}

// AllReduceSum performs a global sum reduction.
func (n *Node) AllReduceSum(v int) int {
	cl := n.cl
	cl.mu.Lock()
	cl.resetCollective()
	cl.reduceSum += int64(v)
	cl.contrib++
	cl.stats.Reduces++
	cl.mu.Unlock()
	n.Barrier()
	cl.mu.Lock()
	out := int(cl.reduceSum)
	cl.mu.Unlock()
	n.Barrier()
	n.clock += cl.prof.TBarrier // hardware reduction on the control network
	return out
}

// AllReduceOr performs a global boolean OR reduction.
func (n *Node) AllReduceOr(v bool) bool {
	x := 0
	if v {
		x = 1
	}
	return n.AllReduceMax(x) > 0
}

// Exchange performs the paper's irregular all-to-many communication:
// out[d] is the payload for node d (nil/absent entries mean nothing to
// send). It returns the received payloads indexed by source rank.
// Payloads of length zero are dropped, matching "each node sends zero or
// more messages".
func (n *Node) Exchange(out map[int][]int32, scheme Scheme, tag int) map[int][]int32 {
	cl := n.cl
	cl.mu.Lock()
	cl.stats.Exchanges++
	cl.mu.Unlock()
	switch scheme {
	case LP:
		return n.exchangeLP(out, tag)
	case Async:
		return n.exchangeAsync(out, tag)
	default:
		panic(fmt.Sprintf("mpvm: unknown scheme %d", int(scheme)))
	}
}

// exchangeLP implements Linear Permutation: global concatenation of the
// communication matrix, then Q−1 lockstep ring steps. Every step
// transmits, even when empty — the overhead the paper identifies
// ("the nodes must loop a larger number of times to complete the required
// communications").
func (n *Node) exchangeLP(out map[int][]int32, tag int) map[int][]int32 {
	cl := n.cl
	q := cl.Q
	row := make([]int32, q)
	//vet:ordered writes are keyed by destination rank into distinct slots, so iteration order commutes
	for d, data := range out {
		row[d] = int32(len(data))
	}
	matrix := n.AllGather(row)

	recv := make(map[int][]int32, q)
	if data, ok := out[n.Rank]; ok && len(data) > 0 {
		recv[n.Rank] = data // self-delivery does not ride the ring
	}
	for i := 1; i < q; i++ {
		dst := (n.Rank + i) % q
		src := (n.Rank - i + q) % q
		n.Send(dst, tag+i, out[dst])
		m := n.Recv(src, tag+i)
		if len(m.Data) > 0 {
			recv[src] = m.Data
		}
		// Lockstep: the step completes when the slowest pair of the
		// round completes; charge the round's maximum message size.
		var maxWords int32
		for s := 0; s < q; s++ {
			if w := matrix[s][(s+i)%q]; w > maxWords {
				maxWords = w
			}
		}
		n.clock += cl.prof.MsgCost(int(maxWords))
		cl.mu.Lock()
		cl.stats.LPSteps++
		cl.mu.Unlock()
	}
	n.Barrier()
	return recv
}

// exchangeAsync implements the asynchronous scheme: direct sends of
// non-empty payloads; receivers learn their expected senders from a cheap
// flag concatenation and accept in simulated arrival order. Ties in
// arrival time go to the lower source rank, so the receive charges never
// depend on which goroutine happened to deliver first.
func (n *Node) exchangeAsync(out map[int][]int32, tag int) map[int][]int32 {
	q := n.cl.Q
	row := make([]int32, q)
	//vet:ordered writes are keyed by destination rank into distinct slots, so iteration order commutes
	for d, data := range out {
		if len(data) > 0 {
			row[d] = 1
		}
	}
	matrix := n.AllGather(row)

	// Deterministic send order keeps runs reproducible.
	dsts := make([]int, 0, len(out))
	for d, data := range out {
		if len(data) > 0 && d != n.Rank {
			dsts = append(dsts, d)
		}
	}
	sort.Ints(dsts)
	for _, d := range dsts {
		n.Send(d, tag, out[d])
	}
	recv := make(map[int][]int32, q)
	if data, ok := out[n.Rank]; ok && len(data) > 0 {
		recv[n.Rank] = data
	}
	expected := 0
	for s := 0; s < q; s++ {
		if s != n.Rank && matrix[s][n.Rank] > 0 {
			expected++
		}
	}
	msgs := make([]Message, expected)
	for i := range msgs {
		msgs[i] = n.await(-1, tag)
	}
	sort.Slice(msgs, func(i, j int) bool {
		if msgs[i].arrive != msgs[j].arrive {
			return msgs[i].arrive < msgs[j].arrive
		}
		return msgs[i].Src < msgs[j].Src
	})
	for _, m := range msgs {
		n.acceptClock(m)
		recv[m.Src] = m.Data
	}
	return recv
}
