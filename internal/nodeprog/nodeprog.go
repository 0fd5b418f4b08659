package nodeprog

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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

func (g Grid) cols() int   { return len(g.XStarts) - 1 }
func (g Grid) rows() int   { return len(g.YStarts) - 1 }
func (g Grid) width() int  { return g.XStarts[len(g.XStarts)-1] }
func (g Grid) height() int { return g.YStarts[len(g.YStarts)-1] }

// tile returns rank's tile origin and size.
func (g Grid) tile(rank int) (x0, y0, w, h int) {
	row, col := rank/g.cols(), rank%g.cols()
	return g.XStarts[col], g.YStarts[row], g.XStarts[col+1] - g.XStarts[col], g.YStarts[row+1] - g.YStarts[row]
}

// owner returns the rank whose tile holds pixel id (a region's ID is its
// anchor pixel, so this is the region's owner), or −1 for an ID outside
// the image.
func (g Grid) owner(id int32) int {
	w := g.width()
	if id < 0 || int(id) >= w*g.height() {
		return -1
	}
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

// noSlot marks an empty entry of a slot-indexed scratch array.
const noSlot int32 = -1

// prog is the per-node program state. The node's graph is a rag arena:
// the owned vertices take slots [0, nOwned) in ascending ID order, and
// ghosts — neighbours owned by other ranks — are appended after them. An
// owned vertex's neighbour list is exact; a ghost's lists its owned
// neighbours plus, harmlessly, edges to other ghosts it inherited by
// absorbing an owned loser, which no count includes.
type prog struct {
	c Collectives
	Node
	x0, y0, tw, th int

	labels []int32 // tile labels carrying global region IDs
	g      *rag.Graph
	nOwned int

	asg   *rag.Assignments
	stats rag.MergeStats

	// Round scratch, reused from round to round.
	choice []int32 // owned slot → chosen slot, or noSlot
	suitor []bool  // owned slot → its remote choice chose it back
	repOf  []int32 // loser slot → representative slot; noSlot between rounds
	pairs  []int32 // flat (loser slot, representative slot) of known losers
	tied   []int32 // SlotChoice's tie list
	nbrs   []int32 // a handover's neighbour slots
}

// Run executes the paper's message-passing node program on c: split the
// tile, stitch the graph across tile borders, merge until no active edge
// remains anywhere, and resolve the tile's labels. It returns the first
// error a collective reports, or an error for a collective result no
// correct peer could have produced.
func Run(c Collectives, n Node) (*Result, error) {
	t0 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or messages
	p := &prog{c: c, Node: n}
	p.x0, p.y0, p.tw, p.th = n.Grid.tile(n.Rank)
	res := &Result{}

	levels, squares := p.split()
	var err error
	if res.SplitIterations, err = c.AllReduceMax(levels); err != nil {
		return nil, err
	}
	if res.Squares, err = c.AllReduceSum(squares); err != nil {
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
	res.Labels = p.asg.Relabel(p.labels)
	c.Charge(p.tw * p.th * 2)
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
// levels executed and of squares. Tile boundaries are multiples of the cap
// and every split square is cap-aligned with side ≤ cap, so the local
// split yields exactly the global split's squares within the tile.
func (p *prog) split() (levels, squares int) {
	// The tile may legally re-resolve the cap smaller — exactly when the
	// cap exceeds the tile's own dimensions, where no feasible square can
	// reach either value.
	// Cancellation travels through the collectives, so the local split
	// runs under a context that never ends and cannot fail.
	res, _ := quadsplit.Split(context.Background(), p.Tile, p.Crit, quadsplit.Options{MaxSquare: p.Cap})
	// The F77 node code walks its tile once per level testing quad-blocks:
	// ~8 scalar ops per pixel plus a fixed loop-setup cost per level.
	p.c.Charge(p.tw * p.th * res.Iterations * 8)
	p.c.Phase(PhaseSplit, res.Iterations)

	// Tile-local labels are anchor pixel indices in the tile, so a square
	// is a pixel labelled with its own index; make them global region IDs
	// in place.
	w := p.Grid.width()
	p.labels = res.Labels
	for i, l := range p.labels {
		if int(l) == i {
			squares++
		}
		p.labels[i] = int32((p.y0+int(l)/p.tw)*w + p.x0 + int(l)%p.tw)
	}
	return res.Iterations, squares
}

// buildGraph is step 2: the tile's own graph, then cross edges from
// boundary strips exchanged with the grid neighbours. Inside a tile,
// row-major first appearance is ascending global ID, so the owned
// vertices take slots [0, nOwned) in ID order.
func (p *prog) buildGraph() error {
	// Like the split, the build runs under a context that never ends and
	// cannot fail.
	p.g, _ = rag.BuildFromLabels(context.Background(), p.Tile, p.labels, p.Crit)
	p.nOwned = p.g.Slots()
	p.choice, p.suitor = make([]int32, p.nOwned), make([]bool, p.nOwned)
	p.c.Charge(p.tw * p.th * 4)

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
			iv := p.g.IntervalOf(id)
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
			if p.Grid.owner(theirID) != s.Peer {
				return fmt.Errorf("nodeprog: boundary strip from rank %d names vertex %d it does not own", s.Peer, theirID)
			}
			if !p.g.Contains(theirID) {
				p.g.AddVertex(theirID, homog.Interval{Lo: uint8(data[3*k+1]), Hi: uint8(data[3*k+2])})
			}
			p.g.AddEdge(myID, theirID)
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
		chosen, scanned, head := p.choose(policy, p.stats.Iterations+1)
		p.c.Charge(head * 4)
		active := 0
		if chosen > 0 {
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
		p.c.Charge(scanned*6 + chosen*4)
		merged, err := p.mergeRound()
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

// choose is step 3a: fill p.choice with the choice of every owned, alive
// vertex with an active edge and return how many there are. scanned
// counts the adjacency entries visited; head counts those of the vertices
// up to the first with a choice, the cost the model bills for the head
// test. Both add whole adjacency lists.
func (p *prog) choose(policy rag.TiePolicy, iter int) (chosen, scanned, head int) {
	for s := range p.choice {
		p.choice[s] = noSlot
		if !p.g.SlotAlive(s) {
			continue
		}
		deg := len(p.g.SlotNeighbours(s))
		scanned += deg
		if chosen == 0 {
			head += deg
		}
		var c int
		c, p.tied = p.g.SlotChoice(s, policy, p.Seed, iter, p.tied)
		if c >= 0 {
			p.choice[s] = int32(c)
			chosen++
		}
	}
	return chosen, scanned, head
}

// mergeRound runs steps 3b–4 on this round's choices and returns the
// global number of merges. Every payload is built in ascending ID order
// so the bytes a node sends are the same run to run.
func (p *prog) mergeRound() (int, error) {
	g := p.g
	// Step 3b: route each remote choice (v, w) to owner(w) so mutual
	// pairs are detectable on both sides; a local one needs no message.
	outbound := make(map[int][]int32)
	for s, c := range p.choice {
		if c >= int32(p.nOwned) {
			w := g.SlotID(int(c))
			o := p.Grid.owner(w)
			outbound[o] = append(outbound[o], g.SlotID(s), w)
		}
	}
	in, err := p.c.Exchange(outbound)
	if err != nil {
		return 0, err
	}
	clear(p.suitor)
	for _, data := range in {
		if len(data)%2 != 0 {
			return 0, fmt.Errorf("nodeprog: suitor routing of odd length %d", len(data))
		}
		for i := 0; i < len(data); i += 2 {
			s, ok := g.SlotOf(data[i+1])
			if !ok || s >= p.nOwned {
				return 0, fmt.Errorf("nodeprog: suitor for vertex %d, which rank %d does not own", data[i+1], p.Rank)
			}
			if c := p.choice[s]; c != noSlot && g.SlotID(int(c)) == data[i] {
				p.suitor[s] = true
			}
		}
	}

	// Step 3c: mutual pairs. Both owners detect; the loser's owner emits
	// the event.
	var events []int32 // flat (rep, loser, lo, hi)
	for s, c := range p.choice {
		if c == noSlot || g.SlotID(int(c)) >= g.SlotID(s) {
			continue // loser = max(v, w) = v emits
		}
		mutual := p.suitor[s]
		if c < int32(p.nOwned) {
			mutual = p.choice[c] == int32(s)
		}
		if mutual {
			union := g.SlotInterval(s).Union(g.SlotInterval(int(c)))
			events = append(events, g.SlotID(int(c)), g.SlotID(s), int32(union.Lo), int32(union.Hi))
		}
	}

	// Step 4a: concatenate the merge events everywhere and record them.
	all, err := p.c.AllGather(events)
	if err != nil {
		return 0, err
	}
	if len(all)%4 != 0 {
		return 0, fmt.Errorf("nodeprog: %d merge-event values, not a multiple of 4", len(all))
	}
	if err := p.recordMerges(all); err != nil {
		return 0, err
	}
	merges := len(all) / 4
	p.c.Charge(merges * 8)
	if err := p.emit(core.StageEvent{Kind: core.EventMergeIteration, Iteration: p.stats.Iterations, Merges: merges}); err != nil {
		return 0, err
	}

	// Step 4b: relabeling an owned adjacency entry that names a loser is
	// billed per entry: each known loser's owned neighbours.
	relabeled := 0
	for k := 0; k < len(p.pairs); k += 2 {
		p.repOf[p.pairs[k]] = p.pairs[k+1]
		owned, _ := slices.BinarySearch(g.SlotNeighbours(int(p.pairs[k])), int32(p.nOwned))
		relabeled += owned
	}
	p.c.Charge(relabeled * 6)

	// Step 4c: hand each owned loser's adjacency to its representative's
	// owner, then contract every known loser into its representative.
	// Mutual pairs form a matching, so one level of representatives
	// suffices.
	handover := make(map[int][]int32)
	for k := 0; k < len(p.pairs); k += 2 {
		sl, sr := int(p.pairs[k]), int(p.pairs[k+1])
		if !g.SlotAlive(sl) || !g.SlotAlive(sr) {
			return 0, fmt.Errorf("nodeprog: merge of %d into %d after one of them merged away this round", g.SlotID(sl), g.SlotID(sr))
		}
		if sl < p.nOwned && sr >= p.nOwned {
			o := p.Grid.owner(g.SlotID(sr))
			handover[o] = p.appendHandover(handover[o], sl, sr)
		}
		g.ContractSlots(sr, sl)
		p.repOf[sl] = noSlot // no list names sl any more
	}
	if in, err = p.c.Exchange(handover); err != nil {
		return 0, err
	}
	for _, data := range in {
		if err := p.applyHandover(data); err != nil {
			return 0, err
		}
	}
	return merges, nil
}

// recordMerges applies step 4a's merge events to this node's view: every
// known representative takes its new interval (an edge relabeled to it
// needs it for future weights), a representative this node does not know
// but whose loser it does becomes a ghost, and every known loser is
// queued in p.pairs with its representative. p.repOf grows to cover the
// new ghosts.
func (p *prog) recordMerges(all []int32) error {
	g := p.g
	p.pairs = p.pairs[:0]
	for i := 0; i < len(all); i += 4 {
		rep, loser := all[i], all[i+1]
		if rep < 0 || rep >= loser || int(loser) >= p.Grid.width()*p.Grid.height() {
			return fmt.Errorf("nodeprog: malformed merge event (%d, %d)", rep, loser)
		}
		p.asg.Record(loser, rep)
		sl, knowLoser := g.SlotOf(loser)
		if !g.Contains(rep) {
			if !knowLoser {
				continue
			}
			if p.Grid.owner(rep) == p.Rank {
				return fmt.Errorf("nodeprog: merge into vertex %d, which rank %d owns but does not know", rep, p.Rank)
			}
		}
		// AddVertex unions, which sets the interval: the merged one
		// contains the old.
		g.AddVertex(rep, homog.Interval{Lo: uint8(all[i+2]), Hi: uint8(all[i+3])})
		if knowLoser {
			sr, _ := g.SlotOf(rep)
			p.pairs = append(p.pairs, int32(sl), int32(sr))
		}
	}
	for len(p.repOf) < g.Slots() {
		p.repOf = append(p.repOf, noSlot)
	}
	return nil
}

// appendHandover appends owned loser sl's handover to buf: its
// representative, then its neighbours mapped through this round's
// representatives, deduplicated and in ascending ID order, each with its
// post-merge interval. The count includes the representative itself.
func (p *prog) appendHandover(buf []int32, sl, sr int) []int32 {
	g := p.g
	p.nbrs = p.nbrs[:0]
	for _, n := range g.SlotNeighbours(sl) {
		if r := p.repOf[n]; r != noSlot {
			n = r
		}
		p.nbrs = append(p.nbrs, n)
	}
	slices.SortFunc(p.nbrs, func(a, b int32) int { return cmp.Compare(g.SlotID(int(a)), g.SlotID(int(b))) })
	p.nbrs = slices.Compact(p.nbrs)
	buf = append(buf, g.SlotID(sr), int32(len(p.nbrs)))
	for _, n := range p.nbrs {
		iv := g.SlotInterval(int(n))
		buf = append(buf, g.SlotID(int(n)), int32(iv.Lo), int32(iv.Hi))
	}
	return buf
}

// applyHandover adds the adjacency other ranks handed over to owned
// representatives. Every sender relabeled through the same round's
// representatives, so all agree on a neighbour's interval.
func (p *prog) applyHandover(data []int32) error {
	g := p.g
	for i := 0; i < len(data); {
		if i+1 >= len(data) || data[i+1] < 0 || i+2+3*int(data[i+1]) > len(data) {
			return fmt.Errorf("nodeprog: truncated adjacency handover")
		}
		rep, cnt := data[i], int(data[i+1])
		if s, ok := g.SlotOf(rep); !ok || s >= p.nOwned {
			return fmt.Errorf("nodeprog: adjacency handover for vertex %d, which rank %d does not own", rep, p.Rank)
		}
		i += 2
		for ; cnt > 0; cnt, i = cnt-1, i+3 {
			w := data[i]
			if w == rep {
				continue
			}
			if !g.Contains(w) {
				if o := p.Grid.owner(w); o < 0 || o == p.Rank {
					return fmt.Errorf("nodeprog: adjacency handover names vertex %d, unknown to its owner", w)
				}
				g.AddVertex(w, homog.Interval{Lo: uint8(data[i+1]), Hi: uint8(data[i+2])})
			}
			g.AddEdge(rep, w)
		}
	}
	return nil
}
