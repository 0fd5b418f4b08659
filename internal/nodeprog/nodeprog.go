package nodeprog

import (
	"fmt"
	"sort"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// Collectives is everything the node program asks of its machine. Every
// communication method returns an error, so a cancellation or an abort
// surfaces from whichever collective the program was waiting in, and every
// node leaves the program at the same step.
type Collectives interface {
	// AllReduceMax returns the maximum of v over all nodes.
	AllReduceMax(v int) (int, error)
	// AllReduceSum returns the sum of v over all nodes.
	AllReduceSum(v int) (int, error)
	// AllGather contributes data and returns every node's contribution,
	// concatenated in rank order.
	AllGather(data []int32) ([]int32, error)
	// Exchange delivers out[r] to node r (the paper's irregular
	// communication) and returns the payloads addressed to this node in
	// ascending source-rank order.
	Exchange(out map[int][]int32) ([][]int32, error)
	// Neighbours is the regular exchange with grid neighbours: each strip
	// goes to its peer, sent in the order listed, and in[i] is the strip
	// out[i].Peer sent back.
	Neighbours(out []Strip) (in [][]int32, err error)
	// Emit reports a stage event. The program calls it on rank 0 only.
	Emit(ev core.StageEvent) error

	// Charge and Phase feed a cost model; on real hardware they do nothing.
	// Charge bills ops scalar operations of node compute.
	Charge(ops int)
	// Phase marks a step boundary of the program; n is the phase's count
	// (see the Phase constants).
	Phase(p Phase, n int)
}

// Phase names a step boundary of the node program.
type Phase int

const (
	// PhaseSplit follows the local split; n is the number of split levels
	// it executed.
	PhaseSplit Phase = iota
	// PhaseSplitAgreed follows the reductions that agree the split
	// counters. The split stage's time is taken here.
	PhaseSplitAgreed
	// PhaseGraph follows the boundary stitch: the graph is built.
	PhaseGraph
	// PhaseRound starts a merge round the head reduction found work for;
	// n is the node's tile area in pixels.
	PhaseRound
	// PhaseDone follows the label write-back.
	PhaseDone
)

// Dir is the side of a tile a boundary strip runs along.
type Dir int

// The four sides, in the order the program sends strips.
const (
	East Dir = iota
	West
	South
	North
)

// Strip is one boundary strip bound for a grid neighbour.
type Strip struct {
	Dir  Dir
	Peer int
	Data []int32
}

// Grid is the block decomposition of the image over the nodes: column c
// spans x in [XStarts[c], XStarts[c+1]), row r spans y in [YStarts[r],
// YStarts[r+1]), and rank r*cols+c owns that tile. Boundaries must be
// multiples of the split cap, so no split square crosses one. mpengine's
// P1×P2 tiles and distengine's 1×m bands are both grids.
type Grid struct {
	XStarts, YStarts []int
}

func (g Grid) cols() int  { return len(g.XStarts) - 1 }
func (g Grid) rows() int  { return len(g.YStarts) - 1 }
func (g Grid) width() int { return g.XStarts[len(g.XStarts)-1] }

// tile returns rank's tile origin and size.
func (g Grid) tile(rank int) (x0, y0, w, h int) {
	row, col := rank/g.cols(), rank%g.cols()
	return g.XStarts[col], g.YStarts[row], g.XStarts[col+1] - g.XStarts[col], g.YStarts[row+1] - g.YStarts[row]
}

// owner returns the rank whose tile holds pixel id (a region's ID is its
// anchor pixel, so this is the region's owner).
func (g Grid) owner(id int32) int {
	w := g.width()
	x, y := int(id)%w, int(id)/w
	col := sort.Search(g.cols(), func(c int) bool { return g.XStarts[c+1] > x })
	row := sort.Search(g.rows(), func(r int) bool { return g.YStarts[r+1] > y })
	return row*g.cols() + col
}

// Node is one node's share of a segmentation.
type Node struct {
	Grid Grid
	Rank int
	// Tile holds the pixels of the node's tile, Grid's tile Rank.
	Tile *pixmap.Image
	// Cap is the effective split-square cap, resolved against the whole
	// image.
	Cap  int
	Crit homog.Criterion
	Tie  rag.TiePolicy
	Seed uint64
}

// Result is one node's outcome. Every field but Labels and SplitWall is
// agreed through collectives, so it is equal on all nodes.
type Result struct {
	SplitIterations int
	Squares         int
	Merge           rag.MergeStats
	// SplitWall is this node's host time from the start of the program to
	// the split counters' agreement.
	SplitWall time.Duration
	// Labels holds the final region ID of every tile pixel, row-major.
	Labels []int32
}

// prog is the per-node program state.
type prog struct {
	c Collectives
	Node
	x0, y0, tw, th int

	labels   []int32                      // tile labels carrying global region IDs
	ownedIDs []int32                      // owned vertex IDs, ascending
	iv       map[int32]homog.Interval     // intervals of every known vertex
	adj      map[int32]map[int32]struct{} // adjacency of owned vertices

	asg   *rag.Assignments
	stats rag.MergeStats
}

// Run executes the paper's message-passing node program on c: split the
// tile, stitch the graph across tile borders, merge until no active edge
// remains anywhere, and resolve the tile's labels. It returns the first
// error a collective reports.
func Run(c Collectives, n Node) (*Result, error) {
	t0 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or messages
	p := &prog{c: c, Node: n}
	p.x0, p.y0, p.tw, p.th = n.Grid.tile(n.Rank)
	res := &Result{}

	levels := p.split()
	var err error
	if res.SplitIterations, err = c.AllReduceMax(levels); err != nil {
		return nil, err
	}
	if res.Squares, err = c.AllReduceSum(len(p.ownedIDs)); err != nil {
		return nil, err
	}
	c.Phase(PhaseSplitAgreed, 0)
	res.SplitWall = time.Since(t0) //vet:timing stage wall-time for Stats; never reaches labels or messages
	if err := p.emit(core.StageEvent{Kind: core.EventSplitDone, Iterations: res.SplitIterations, Squares: res.Squares}); err != nil {
		return nil, err
	}

	if err := p.buildGraph(); err != nil {
		return nil, err
	}
	if err := p.emit(core.StageEvent{Kind: core.EventGraphDone, Squares: res.Squares}); err != nil {
		return nil, err
	}
	if err := p.mergeLoop(); err != nil {
		return nil, err
	}
	res.Merge = p.stats
	res.Labels = p.writeLabels()
	c.Phase(PhaseDone, 0)
	return res, nil
}

// emit reports ev from rank 0 only.
func (p *prog) emit(ev core.StageEvent) error {
	if p.Rank != 0 {
		return nil
	}
	return p.c.Emit(ev)
}

// split is step 1: split the tile on its own and return the number of
// levels executed. Tile boundaries are multiples of the cap and every
// split square is cap-aligned with side ≤ cap, so the local split yields
// exactly the global split's squares within the tile.
func (p *prog) split() int {
	// The tile may legally re-resolve the cap smaller — exactly when the
	// cap exceeds the tile's own dimensions, where no feasible square can
	// reach either value.
	res := quadsplit.Split(p.Tile, p.Crit, quadsplit.Options{MaxSquare: p.Cap})
	// The F77 node code walks its tile once per level testing quad-blocks:
	// ~8 scalar ops per pixel plus a fixed loop-setup cost per level.
	p.c.Charge(p.tw * p.th * res.Iterations * 8)
	p.c.Phase(PhaseSplit, res.Iterations)

	// Owned vertices and their intervals. Squares reads the tile-local
	// labels, so enumerate before globalising them below.
	w := p.Grid.width()
	p.iv = make(map[int32]homog.Interval)
	p.adj = make(map[int32]map[int32]struct{})
	for _, sq := range res.Squares(p.Tile) {
		gid := int32((p.y0+sq.Y)*w + p.x0 + sq.X)
		p.iv[gid] = sq.IV
		p.adj[gid] = make(map[int32]struct{})
		p.ownedIDs = append(p.ownedIDs, gid)
	}
	sort.Slice(p.ownedIDs, func(i, j int) bool { return p.ownedIDs[i] < p.ownedIDs[j] })

	// Tile-local labels are anchor pixel indices in the tile; make them
	// global region IDs in place.
	p.labels = res.Labels
	for i, l := range p.labels {
		p.labels[i] = int32((p.y0+int(l)/p.tw)*w + p.x0 + int(l)%p.tw)
	}
	return res.Iterations
}

// buildGraph is step 2: internal edges from the tile, cross edges from
// boundary strips exchanged with the grid neighbours.
func (p *prog) buildGraph() error {
	tw, th := p.tw, p.th
	for ly := 0; ly < th; ly++ {
		for lx := 0; lx < tw; lx++ {
			a := p.labels[ly*tw+lx]
			if lx+1 < tw {
				if b := p.labels[ly*tw+lx+1]; a != b {
					p.addEdge(a, b)
				}
			}
			if ly+1 < th {
				if b := p.labels[(ly+1)*tw+lx]; a != b {
					p.addEdge(a, b)
				}
			}
		}
	}
	p.c.Charge(tw * th * 4)

	// For each neighbour, send the (label, lo, hi) of my border pixels
	// facing it; zip what it sends back into cross edges.
	row, col := p.Rank/p.Grid.cols(), p.Rank%p.Grid.cols()
	steps := [...]struct{ drow, dcol int }{East: {0, 1}, West: {0, -1}, South: {1, 0}, North: {-1, 0}}
	var out []Strip
	for d, s := range steps {
		nr, nc := row+s.drow, col+s.dcol
		if nr < 0 || nr >= p.Grid.rows() || nc < 0 || nc >= p.Grid.cols() {
			continue
		}
		strip := p.border(Dir(d))
		payload := make([]int32, 0, 3*len(strip))
		for _, id := range strip {
			iv := p.iv[id]
			payload = append(payload, id, int32(iv.Lo), int32(iv.Hi))
		}
		out = append(out, Strip{Dir: Dir(d), Peer: nr*p.Grid.cols() + nc, Data: payload})
	}
	in, err := p.c.Neighbours(out)
	if err != nil {
		return err
	}
	for i, s := range out {
		data := in[i]
		mine := p.border(s.Dir)
		if len(data) != 3*len(mine) {
			return fmt.Errorf("nodeprog: boundary strip of %d values from rank %d, want %d", len(data), s.Peer, 3*len(mine))
		}
		for k, myID := range mine {
			theirID := data[3*k]
			if _, ok := p.iv[theirID]; !ok {
				p.iv[theirID] = homog.Interval{Lo: uint8(data[3*k+1]), Hi: uint8(data[3*k+2])}
			}
			if myID != theirID {
				p.addEdge(myID, theirID)
			}
		}
	}
	p.c.Phase(PhaseGraph, 0)
	return nil
}

// border returns, pixel by pixel, the labels along side d of the tile:
// columns top to bottom, rows left to right.
func (p *prog) border(d Dir) []int32 {
	tw, th := p.tw, p.th
	if tw == 0 || th == 0 {
		return nil
	}
	switch d {
	case North:
		return p.labels[:tw]
	case South:
		return p.labels[(th-1)*tw:]
	}
	x := 0
	if d == East {
		x = tw - 1
	}
	out := make([]int32, th)
	for ly := range out {
		out[ly] = p.labels[ly*tw+x]
	}
	return out
}

// addEdge records adjacency on whichever endpoints this node owns.
func (p *prog) addEdge(a, b int32) {
	if s, ok := p.adj[a]; ok {
		s[b] = struct{}{}
	}
	if s, ok := p.adj[b]; ok {
		s[a] = struct{}{}
	}
}

// mergeLoop is steps 3–5: merge rounds until no active edge remains
// anywhere. The head reduction decides termination for every node at
// once, and a cancellation surfaces from it (or from any other
// collective) so all nodes leave within one round.
func (p *prog) mergeLoop() error {
	p.asg = rag.NewAssignments()
	stalls := 0
	for {
		policy := p.Tie
		forced := policy == rag.Random && stalls >= 3
		if forced {
			policy = rag.SmallestID
		}
		// A vertex has a choice exactly when it has an active edge, and
		// every edge has an owned endpoint on some node, so the choices
		// also answer the head question: any active edge anywhere?
		choice, scanned, head := p.choose(policy, p.stats.Iterations+1)
		p.c.Charge(head * 4)
		active := 0
		if len(choice) > 0 {
			active = 1
		}
		red, err := p.c.AllReduceMax(active)
		if err != nil {
			return err
		}
		if red == 0 {
			return nil
		}
		p.stats.Iterations++
		p.c.Phase(PhaseRound, p.tw*p.th)
		if forced {
			p.stats.ForcedResolutions++
			stalls = 0
		}
		p.c.Charge(scanned*6 + len(choice)*4)
		merged, err := p.mergeRound(choice)
		if err != nil {
			return err
		}
		p.stats.MergesPerIter = append(p.stats.MergesPerIter, merged)
		if merged == 0 {
			stalls++
		} else {
			stalls = 0
		}
	}
}

// choose is step 3a: the choice of every owned, alive vertex with an
// active edge (rag.PickTied keeps the tie semantics identical to every
// other engine). scanned counts the adjacency entries visited; head
// counts those of the vertices up to the first with a choice, the cost
// the model bills for the head test. Charging whole adjacency lists keeps
// simulated times independent of map order.
func (p *prog) choose(policy rag.TiePolicy, iter int) (choice map[int32]int32, scanned, head int) {
	choice = make(map[int32]int32)
	var tied []int32
	for _, v := range p.ownedIDs {
		adj, alive := p.adj[v]
		if !alive {
			continue
		}
		scanned += len(adj)
		if len(choice) == 0 {
			head += len(adj)
		}
		bestW := -1
		tied = tied[:0]
		//vet:ordered min-reduction; the tie list is sorted inside rag.PickTied before any order-dependent use
		for w := range adj {
			if !p.Crit.Homogeneous(p.iv[v].Union(p.iv[w])) {
				continue
			}
			switch wt := homog.Weight(p.iv[v], p.iv[w]); {
			case bestW < 0 || wt < bestW:
				bestW = wt
				tied = append(tied[:0], w)
			case wt == bestW:
				tied = append(tied, w)
			}
		}
		if bestW >= 0 {
			choice[v] = rag.PickTied(tied, policy, p.Seed, iter, v)
		}
	}
	return choice, scanned, head
}

// mergeRound runs steps 3b–4 on this round's choices and returns the
// global number of merges. Every payload is built in ascending ID order
// so the bytes a node sends are the same run to run.
func (p *prog) mergeRound(choice map[int32]int32) (int, error) {
	// Step 3b: route each choice (v, w) to owner(w) so mutual pairs are
	// detectable on both sides.
	outbound := make(map[int][]int32)
	suitors := make(map[int32][]int32) // chosen vertex -> suitors
	for _, v := range p.ownedIDs {
		w, ok := choice[v]
		if !ok {
			continue
		}
		if o := p.Grid.owner(w); o == p.Rank {
			suitors[w] = append(suitors[w], v)
		} else {
			outbound[o] = append(outbound[o], v, w)
		}
	}
	in, err := p.c.Exchange(outbound)
	if err != nil {
		return 0, err
	}
	for _, data := range in {
		for i := 0; i+1 < len(data); i += 2 {
			suitors[data[i+1]] = append(suitors[data[i+1]], data[i])
		}
	}

	// Step 3c: mutual pairs. Both owners detect; the loser's owner emits
	// the event.
	var events []int32 // flat (rep, loser, lo, hi)
	for _, v := range p.ownedIDs {
		w, ok := choice[v]
		if !ok || w >= v {
			continue // loser = max(v, w) = v emits
		}
		mutual := false
		if p.Grid.owner(w) == p.Rank {
			mutual = choice[w] == v
		} else {
			for _, s := range suitors[v] {
				if s == w {
					mutual = true
					break
				}
			}
		}
		if mutual {
			union := p.iv[v].Union(p.iv[w])
			events = append(events, w, v, int32(union.Lo), int32(union.Hi))
		}
	}

	// Step 4a: concatenate the merge events everywhere and apply them.
	all, err := p.c.AllGather(events)
	if err != nil {
		return 0, err
	}
	mergeMap := make(map[int32]int32)
	merges := 0
	for i := 0; i+3 < len(all); i += 4 {
		rep, loser := all[i], all[i+1]
		mergeMap[loser] = rep
		// Every node records the representative's new interval: an edge
		// relabeled to rep below needs it for future weights.
		p.iv[rep] = homog.Interval{Lo: uint8(all[i+2]), Hi: uint8(all[i+3])}
		p.asg.Record(loser, rep)
		merges++
	}
	p.c.Charge(merges * 8)
	if err := p.emit(core.StageEvent{Kind: core.EventMergeIteration, Iteration: p.stats.Iterations, Merges: merges}); err != nil {
		return 0, err
	}

	// Step 4b: relabel owned adjacency through this round's map. Mutual
	// pairs form a matching, so one relabeling level suffices.
	relabeled := 0
	//vet:ordered per-vertex set edits and a count are keyed and independent, so vertex visit order commutes
	for v, adjSet := range p.adj {
		var add, del []int32
		//vet:ordered del/add are applied below as keyed set deletions/insertions, which commute
		for w := range adjSet {
			if r, ok := mergeMap[w]; ok {
				del = append(del, w)
				if r != v {
					add = append(add, r)
				}
				relabeled++
			}
		}
		for _, w := range del {
			delete(adjSet, w)
		}
		for _, r := range add {
			adjSet[r] = struct{}{}
		}
	}
	p.c.Charge(relabeled * 6)

	// Step 4c: hand each absorbed loser's adjacency to its
	// representative's owner.
	losers := make([]int32, 0, len(mergeMap))
	for loser := range mergeMap {
		losers = append(losers, loser)
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i] < losers[j] })
	handover := make(map[int][]int32)
	for _, loser := range losers {
		rep := mergeMap[loser]
		adjSet, ok := p.adj[loser]
		if !ok {
			continue // not owned here
		}
		if o := p.Grid.owner(rep); o == p.Rank {
			repAdj := p.ownedAdj(rep)
			//vet:ordered keyed set union commutes across iteration orders
			for w := range adjSet {
				if w != rep {
					repAdj[w] = struct{}{}
				}
			}
		} else {
			ws := make([]int32, 0, len(adjSet))
			for w := range adjSet {
				ws = append(ws, w)
			}
			sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
			payload := []int32{rep, int32(len(adjSet))}
			for _, w := range ws {
				iv := p.iv[w]
				payload = append(payload, w, int32(iv.Lo), int32(iv.Hi))
			}
			handover[o] = append(handover[o], payload...)
		}
		delete(p.adj, loser)
	}
	if in, err = p.c.Exchange(handover); err != nil {
		return 0, err
	}
	for _, data := range in {
		for i := 0; i < len(data); {
			if i+1 >= len(data) || data[i+1] < 0 || i+2+3*int(data[i+1]) > len(data) {
				return 0, fmt.Errorf("nodeprog: truncated adjacency handover")
			}
			rep, cnt := data[i], int(data[i+1])
			i += 2
			repAdj := p.ownedAdj(rep)
			for ; cnt > 0; cnt, i = cnt-1, i+3 {
				w := data[i]
				if w == rep {
					continue
				}
				// The sender relabeled through the same round's map, so
				// every sender agrees on w's interval: first writer wins.
				if _, ok := p.iv[w]; !ok {
					p.iv[w] = homog.Interval{Lo: uint8(data[i+1]), Hi: uint8(data[i+2])}
				}
				repAdj[w] = struct{}{}
			}
		}
	}

	// Losers no longer exist as vertices anywhere; drop their mirrors.
	for loser := range mergeMap {
		delete(p.iv, loser)
	}
	return merges, nil
}

// ownedAdj returns rep's adjacency set, creating it if rep has none yet.
func (p *prog) ownedAdj(rep int32) map[int32]struct{} {
	s := p.adj[rep]
	if s == nil {
		s = make(map[int32]struct{})
		p.adj[rep] = s
	}
	return s
}

// writeLabels resolves the tile's final labels in place.
func (p *prog) writeLabels() []int32 {
	cache := make(map[int32]int32)
	for i, l := range p.labels {
		r, ok := cache[l]
		if !ok {
			r = p.asg.Find(l)
			cache[l] = r
		}
		p.labels[i] = r
	}
	p.c.Charge(p.tw * p.th * 2)
	return p.labels
}
