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
	// ExchangeMax is a merge round's head reduction fused with its suitor
	// exchange: it returns AllReduceMax(v) and, when that maximum is
	// positive, runs between and then Exchange(out). When the maximum is
	// 0 neither runs and in is empty. between holds the round's charges,
	// which a cost model bills after the reduction and before the
	// exchange, because an exchange's times depend on each node's clock
	// at the send.
	ExchangeMax(v int, out map[int][]int32, between func()) (max int, in [][]int32, err error)
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
	Cap int
	// Threshold is T: a square or a merge is homogeneous when its pixel
	// range is at most Threshold.
	Threshold int
	Tie       rag.TiePolicy
	Seed      uint64
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

// Assemble builds the segmentation of im from every node's result, in
// rank order over grid: each tile's labels go in place, and the agreed
// counters are rank 0's. SplitWall is the longest node's split and
// MergeWall the rest of wall, the whole run's host time. The region list
// is filled from the labels.
func Assemble(im *pixmap.Image, grid Grid, results []*Result, wall time.Duration) *core.Segmentation {
	labels := make([]int32, im.W*im.H)
	var splitWall time.Duration
	for rank, res := range results {
		x0, y0, tw, th := grid.tile(rank)
		for ly := range th {
			copy(labels[(y0+ly)*im.W+x0:], res.Labels[ly*tw:(ly+1)*tw])
		}
		splitWall = max(splitWall, res.SplitWall)
	}
	r0 := results[0]
	seg := &core.Segmentation{
		W: im.W, H: im.H,
		Labels:            labels,
		SplitIterations:   r0.SplitIterations,
		MergeIterations:   r0.Merge.Iterations,
		SquaresAfterSplit: r0.Squares,
		MergesPerIter:     r0.Merge.MergesPerIter,
		ForcedResolutions: r0.Merge.ForcedResolutions,
		SplitWall:         splitWall,
		MergeWall:         wall - splitWall,
	}
	seg.FillRegions(im)
	return seg
}

// noSlot marks an empty entry of a slot-indexed scratch array.
const noSlot int32 = -1

// prog is the per-node program state. The node's graph is a rag arena:
// the owned vertices take slots [0, nOwned) in ascending ID order, and
// ghosts — neighbours owned by other ranks — are appended after them. An
// owned vertex's neighbour list is exact; a ghost's lists its owned
// neighbours plus, harmlessly, edges to other ghosts it inherited by
// absorbing an owned loser, which no count includes. Other nodes name
// vertices by region ID, so the node keeps the one ID → slot map.
type prog struct {
	c Collectives
	Node
	x0, y0, tw, th int

	labels  []int32            // tile labels: the owned vertices' slots
	squares []quadsplit.Square // the tile split's list, until buildGraph
	g       *rag.Graph
	nOwned  int
	slotOf  map[int32]int32 // region ID → slot, of every vertex the node has held

	asg *assignments

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
	// Cancellation rides the collectives, so the merge runs under a
	// context that never ends.
	p.asg = newAssignments()
	if res.Merge, err = rag.Drive(context.Background(), p.Tie, p.round); err != nil {
		return nil, err
	}
	res.Labels = p.resolve()
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
	res, _ := quadsplit.Split(context.Background(), p.Tile, p.Threshold, quadsplit.Options{MaxSquare: p.Cap})
	// The F77 node code walks its tile once per level testing quad-blocks:
	// ~8 scalar ops per pixel plus a fixed loop-setup cost per level.
	p.c.Charge(p.tw * p.th * res.Iterations * 8)
	p.c.Phase(PhaseSplit, res.Iterations)
	// The labels are list slots, which buildGraph makes the owned slots;
	// the list keeps its tile-local IDs, which index the labels.
	p.labels, p.squares = res.Labels, res.Squares
	return res.Iterations, len(res.Squares)
}

// buildGraph is step 2: the tile's own graph, from the split's square
// list, then cross edges from boundary strips exchanged with the grid
// neighbours. Inside a tile, list order is ascending global ID, so the
// owned vertices take slots [0, nOwned) in ID order, and a tile label is
// its pixel's owned slot.
func (p *prog) buildGraph() error {
	// Like the split, the build runs under a context that never ends and
	// cannot fail. The list is not needed past it.
	w := p.Grid.width()
	p.g = rag.NewGraph(p.Threshold)
	_ = p.g.AddSquares(context.Background(), p.squares, p.labels, p.tw, p.y0*w+p.x0, w)
	p.squares = nil
	p.nOwned = p.g.Slots()
	p.slotOf = make(map[int32]int32, p.nOwned)
	for s := range p.nOwned {
		p.slotOf[p.g.SlotID(s)] = int32(s)
	}
	p.choice, p.suitor = make([]int32, p.nOwned), make([]bool, p.nOwned)
	p.c.Charge(p.tw * p.th * 4)

	// For each neighbour, send the (ID, lo, hi) of the vertices of my
	// border pixels facing it; zip what it sends back into cross edges.
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
		for _, s := range strip {
			iv := p.g.SlotInterval(int(s))
			payload = append(payload, p.g.SlotID(int(s)), int32(iv.Lo), int32(iv.Hi))
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
		for k, mySlot := range mine {
			theirID := data[3*k]
			if p.Grid.owner(theirID) != s.Peer {
				return fmt.Errorf("nodeprog: boundary strip from rank %d names vertex %d it does not own", s.Peer, theirID)
			}
			p.g.AddEdge(mySlot, p.ghost(theirID, data[3*k+1], data[3*k+2]))
		}
	}
	p.c.Phase(PhaseGraph, 0)
	return nil
}

// live returns the slot of region id if the node holds it live.
func (p *prog) live(id int32) (int32, bool) {
	s, ok := p.slotOf[id]
	return s, ok && p.g.SlotAlive(int(s))
}

// ghost returns the slot of live region id, first adding it with the
// interval [lo, hi] if the node does not hold it live.
func (p *prog) ghost(id, lo, hi int32) int32 {
	s, ok := p.live(id)
	if !ok {
		s = p.g.AddVertex(id, homog.Interval{Lo: uint8(lo), Hi: uint8(hi)})
		p.slotOf[id] = s
	}
	return s
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

// round is one of steps 3–5's merge rounds, run on rag.Drive until no
// active edge remains anywhere. A vertex has a choice exactly when it has
// an active edge, and every edge has an owned endpoint on some node, so
// the choices also answer the head question: any active edge anywhere?
// The head reduction rides the suitor exchange in one ExchangeMax, with
// the round's charges between its halves. It decides termination for
// every node at once, and a cancellation surfaces from it (or from any
// other collective) so all nodes leave within one round.
func (p *prog) round(policy rag.TiePolicy, iter int) (int, bool, error) {
	chosen, scanned, head := p.choose(policy, iter)
	p.c.Charge(head * 4)
	red, in, err := p.c.ExchangeMax(min(chosen, 1), p.suitors(), func() {
		p.c.Phase(PhaseRound, p.tw*p.th)
		p.c.Charge(scanned*6 + chosen*4)
	})
	switch {
	case err != nil:
		return 0, false, err
	case red == 0 && len(in) > 0:
		return 0, false, fmt.Errorf("nodeprog: %d suitor routings in a round without choices", len(in))
	case red == 0:
		return 0, false, nil
	}
	merged, err := p.mergeRound(iter, in)
	return merged, true, err
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

// suitors is step 3b's routing: each remote choice (v, w) goes to
// owner(w), so mutual pairs are detectable on both sides; a local one
// needs no message. The pairs are in ascending ID order, so the bytes a
// node sends are the same run to run.
func (p *prog) suitors() map[int][]int32 {
	out := make(map[int][]int32)
	for s, c := range p.choice {
		if c >= int32(p.nOwned) {
			w := p.g.SlotID(int(c))
			o := p.Grid.owner(w)
			out[o] = append(out[o], p.g.SlotID(s), w)
		}
	}
	return out
}

// mergeRound runs steps 3b–4 on round iter's choices and the suitor
// routing in addressed to this node, and returns the global number of
// merges. Every payload is built in ascending ID order.
func (p *prog) mergeRound(iter int, in [][]int32) (int, error) {
	g := p.g
	clear(p.suitor)
	for _, data := range in {
		if len(data)%2 != 0 {
			return 0, fmt.Errorf("nodeprog: suitor routing of odd length %d", len(data))
		}
		for i := 0; i < len(data); i += 2 {
			s, ok := p.live(data[i+1])
			if !ok || int(s) >= p.nOwned {
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
	if err := p.emit(core.StageEvent{Kind: core.EventMergeIteration, Iteration: iter, Merges: merges}); err != nil {
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
		p.asg.record(loser, rep)
		sl, knowLoser := p.live(loser)
		sr, knowRep := p.live(rep)
		switch {
		case knowRep:
			// The union sets the interval: the merged one contains the old.
			g.UnionInterval(sr, homog.Interval{Lo: uint8(all[i+2]), Hi: uint8(all[i+3])})
		case !knowLoser:
			continue
		case p.Grid.owner(rep) == p.Rank:
			return fmt.Errorf("nodeprog: merge into vertex %d, which rank %d owns but does not know", rep, p.Rank)
		default:
			sr = p.ghost(rep, all[i+2], all[i+3])
		}
		if knowLoser {
			p.pairs = append(p.pairs, sl, sr)
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
		sr, ok := p.live(rep)
		if !ok || int(sr) >= p.nOwned {
			return fmt.Errorf("nodeprog: adjacency handover for vertex %d, which rank %d does not own", rep, p.Rank)
		}
		i += 2
		for ; cnt > 0; cnt, i = cnt-1, i+3 {
			w := data[i]
			if w == rep {
				continue
			}
			if _, ok := p.live(w); !ok {
				if o := p.Grid.owner(w); o < 0 || o == p.Rank {
					return fmt.Errorf("nodeprog: adjacency handover names vertex %d, unknown to its owner", w)
				}
			}
			g.AddEdge(sr, p.ghost(w, data[i+1], data[i+2]))
		}
	}
	return nil
}

// resolve is the label write-back: each owned slot's final region, found
// once through the merge record, gathered over the tile's labels in
// place.
func (p *prog) resolve() []int32 {
	final := make([]int32, p.nOwned)
	for s := range final {
		final[s] = p.asg.find(p.g.SlotID(s))
	}
	for i, s := range p.labels {
		p.labels[i] = final[s]
	}
	return p.labels
}
