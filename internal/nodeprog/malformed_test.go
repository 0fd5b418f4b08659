package nodeprog

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
)

// errPeerLeft is what fakeCluster returns to the nodes still waiting in a
// collective once any node has left the program.
var errPeerLeft = errors.New("fake cluster: a peer left the program")

// fakeCluster is an in-memory machine for n nodes: every collective is one
// rendezvous where each node contributes a value and all receive every
// contribution in rank order.
type fakeCluster struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	gen     int
	arrived int
	pending []any
	done    []any
	err     error
}

func newFakeCluster(n int) *fakeCluster {
	c := &fakeCluster{n: n, pending: make([]any, n)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *fakeCluster) sync(rank int, v any) ([]any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	gen := c.gen
	c.pending[rank] = v
	if c.arrived++; c.arrived == c.n {
		c.done, c.pending = c.pending, make([]any, c.n)
		c.arrived = 0
		c.gen++
		c.cond.Broadcast()
		return c.done, nil
	}
	for c.gen == gen && c.err == nil {
		c.cond.Wait()
	}
	if c.gen == gen {
		return nil, c.err
	}
	return c.done, nil
}

// leave releases every node still waiting in a collective.
func (c *fakeCluster) leave() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = errPeerLeft
	}
	c.cond.Broadcast()
}

// fakeNode is one node's Collectives on a fakeCluster. If corrupt is set,
// it edits the first non-empty result of the named kind this node
// receives: "suitors" is ExchangeMax's routing, "handover" Exchange's,
// "gather" the merge events, "strip" the first boundary strip. "idle"
// adds corrupt(nil) as a payload to the first ExchangeMax whose maximum
// is 0, where a correct cluster delivers none.
type fakeNode struct {
	cl        *fakeCluster
	rank      int
	kind      string
	corrupt   func([]int32) []int32
	corrupted bool
}

func (f *fakeNode) edit(kind string, data []int32) []int32 {
	if f.corrupt == nil || f.corrupted || kind != f.kind || len(data) == 0 {
		return data
	}
	f.corrupted = true
	return f.corrupt(slices.Clone(data))
}

func (f *fakeNode) AllReduceMax(v int) (int, error) {
	all, err := f.cl.sync(f.rank, v)
	if err != nil {
		return 0, err
	}
	m := 0
	for _, x := range all {
		m = max(m, x.(int))
	}
	return m, nil
}

func (f *fakeNode) AllReduceSum(v int) (int, error) {
	all, err := f.cl.sync(f.rank, v)
	if err != nil {
		return 0, err
	}
	s := 0
	for _, x := range all {
		s += x.(int)
	}
	return s, nil
}

func (f *fakeNode) AllGather(data []int32) ([]int32, error) {
	all, err := f.cl.sync(f.rank, data)
	if err != nil {
		return nil, err
	}
	var out []int32
	for _, x := range all {
		out = append(out, x.([]int32)...)
	}
	return f.edit("gather", out), nil
}

func (f *fakeNode) Exchange(out map[int][]int32) ([][]int32, error) {
	all, err := f.cl.sync(f.rank, out)
	if err != nil {
		return nil, err
	}
	return f.delivered("handover", all), nil
}

// maxAndOut is one node's contribution to an ExchangeMax.
type maxAndOut struct {
	v   int
	out map[int][]int32
}

func (f *fakeNode) ExchangeMax(v int, out map[int][]int32, between func()) (int, [][]int32, error) {
	all, err := f.cl.sync(f.rank, maxAndOut{v, out})
	if err != nil {
		return 0, nil, err
	}
	m := 0
	outs := make([]any, len(all))
	for i, x := range all {
		m = max(m, x.(maxAndOut).v)
		outs[i] = x.(maxAndOut).out
	}
	in := f.delivered("suitors", outs)
	if m == 0 {
		if f.kind == "idle" && f.corrupt != nil && !f.corrupted {
			f.corrupted = true
			in = append(in, f.corrupt(nil))
		}
		return 0, in, nil
	}
	between()
	return m, in, nil
}

// delivered returns the payloads every node's out map addresses to this
// node, in rank order, each passed through edit as kind.
func (f *fakeNode) delivered(kind string, outs []any) [][]int32 {
	var in [][]int32
	for _, x := range outs {
		if data, ok := x.(map[int][]int32)[f.rank]; ok {
			in = append(in, f.edit(kind, data))
		}
	}
	return in
}

func (f *fakeNode) Neighbours(out []Strip) ([][]int32, error) {
	all, err := f.cl.sync(f.rank, out)
	if err != nil {
		return nil, err
	}
	in := make([][]int32, len(out))
	for i, s := range out {
		for _, back := range all[s.Peer].([]Strip) {
			if back.Peer == f.rank {
				in[i] = f.edit("strip", back.Data)
			}
		}
	}
	return in, nil
}

func (f *fakeNode) Emit(core.StageEvent) error { return nil }
func (f *fakeNode) Charge(int)                 {}
func (f *fakeNode) Phase(Phase, int)           {}

// runFake runs the node program on every node of a fresh two-band
// cluster over a flat 16×16 image, split into 4×4 squares that all merge
// into one region. A panic on a node becomes that node's error.
func runFake(nodes []*fakeNode) ([]*Result, []error) {
	const w, h = 16, 16
	grid := Grid{XStarts: []int{0, w}, YStarts: []int{0, h / 2, h}}
	cl := newFakeCluster(len(nodes))
	res := make([]*Result, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for r, nd := range nodes {
		nd.cl, nd.rank = cl, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.leave()
			defer func() {
				if v := recover(); v != nil {
					errs[r] = fmt.Errorf("panic: %v", v)
				}
			}()
			res[r], errs[r] = Run(nd, Node{
				Grid: grid, Rank: r, Tile: pixmap.New(w, h/2), Cap: 4,
				Threshold: 10, Tie: rag.SmallestID, Seed: 1,
			})
		}()
	}
	wg.Wait()
	return res, errs
}

// TestFakeClusterMerges: uncorrupted, the fake cluster runs the program
// to one region, so the malformed cases below start from a working run.
func TestFakeClusterMerges(t *testing.T) {
	res, errs := runFake([]*fakeNode{{}, {}})
	for r := range res {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		for i, l := range res[r].Labels {
			if l != 0 {
				t.Fatalf("rank %d pixel %d in region %d, want 0", r, i, l)
			}
		}
	}
	if res[0].Squares != 16 || res[0].Merge.TotalMerges() != 15 {
		t.Fatalf("squares %d, merges %d; want 16 and 15", res[0].Squares, res[0].Merge.TotalMerges())
	}
}

// TestMalformedCollectiveResults: a collective result no correct peer
// could produce makes Run return an error on the node that received it,
// never panic and never carry on. On the fake cluster's input rank 0
// receives remote suitors and adjacency handovers from rank 1, and every
// node ends on an ExchangeMax whose maximum is 0.
func TestMalformedCollectiveResults(t *testing.T) {
	const lastPixel = 16*16 - 1 // owned by rank 1
	cases := []struct {
		name    string
		rank    int
		kind    string
		corrupt func([]int32) []int32
		want    string // in the error
	}{
		{"odd-length suitor routing", 0, "suitors", func(p []int32) []int32 { return append(p, p[0]) }, "odd length"},
		{"suitor for a vertex not owned here", 0, "suitors", func(p []int32) []int32 { p[1] = p[0]; return p }, "suitor for vertex"},
		{"suitors in a round without choices", 0, "idle", func([]int32) []int32 { return []int32{lastPixel, 0} }, "round without choices"},
		{"handover for a vertex not owned here", 0, "handover", func(p []int32) []int32 { p[0] = lastPixel; return p }, "handover for vertex"},
		{"truncated handover", 0, "handover", func(p []int32) []int32 { return p[:len(p)-1] }, "truncated"},
		{"merge events not a multiple of 4", 1, "gather", func(p []int32) []int32 { return append(p, 0) }, "not a multiple of 4"},
		{"short boundary strip", 1, "strip", func(p []int32) []int32 { return p[:len(p)-3] }, "want 48"},
		// IDs the program checks before they reach the arena.
		{"strip naming a vertex its sender does not own", 1, "strip", func(p []int32) []int32 { p[0] = lastPixel; return p }, "it does not own"},
		{"handover naming an unknown vertex of this rank", 0, "handover", func(p []int32) []int32 { p[len(p)-3] = 1; return p }, "unknown to its owner"},
		{"merge event whose representative is the larger ID", 1, "gather", func(p []int32) []int32 { p[0], p[1] = p[1], p[0]; return p }, "malformed merge event"},
		{"merge into an unknown vertex of this rank", 0, "gather", func(p []int32) []int32 { p[0] = 1; return p }, "owns but does not know"},
		{"loser merged twice in one round", 0, "gather", func(p []int32) []int32 { return append(p, p...) }, "merged away this round"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes := []*fakeNode{{}, {}}
			nodes[tc.rank].kind, nodes[tc.rank].corrupt = tc.kind, tc.corrupt
			_, errs := runFake(nodes)
			if !nodes[tc.rank].corrupted {
				t.Fatalf("rank %d never received a %s result to corrupt", tc.rank, tc.kind)
			}
			if err := errs[tc.rank]; err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rank %d: Run returned %v, want an error containing %q", tc.rank, err, tc.want)
			}
		})
	}
}
