package mpengine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/machine"
	"regiongrow/internal/mpvm"
	"regiongrow/internal/nodeprog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
)

// cancelCode is the sentinel contributed to a reduction by a node that has
// observed context cancellation. Cancellation must be a collective
// decision — a node returning unilaterally would leave its peers blocked
// in a barrier — so nodes fold it into the max-reductions the node program
// already performs (the split-level count and each merge round's activity
// flag), which changes no simulated times and no communication counters.
// The code dominates any legitimate contribution: split levels and the
// 0/1 activity flag are both far below it.
const cancelCode = 1 << 20

// Engine is the message-passing engine bound to a configuration and
// communication scheme.
type Engine struct {
	scheme mpvm.Scheme
	nodes  int
	prof   *machine.Profile
}

// New returns a message-passing engine for CM5_LP or CM5_Async with the
// paper's 32 nodes. Any other configuration is a programming error —
// regiongrow.New maps each kind to its configuration — and panics.
func New(cfg machine.ConfigID) *Engine {
	switch cfg {
	case machine.CM5_LP:
		return &Engine{scheme: mpvm.LP, nodes: 32, prof: machine.Get(cfg)}
	case machine.CM5_Async:
		return &Engine{scheme: mpvm.Async, nodes: 32, prof: machine.Get(cfg)}
	default:
		panic(fmt.Sprintf("mpengine: %v is not a message-passing configuration", cfg))
	}
}

// NewCustom returns an engine with an explicit node count, scheme, and
// profile — used by scaling ablations and tests.
func NewCustom(nodes int, scheme mpvm.Scheme, prof *machine.Profile) *Engine {
	return &Engine{scheme: scheme, nodes: nodes, prof: prof}
}

// Name implements core.Engine.
func (e *Engine) Name() string {
	return fmt.Sprintf("message-passing/%dn-%s", e.nodes, e.scheme)
}

// Scheme returns the engine's communication scheme.
func (e *Engine) Scheme() mpvm.Scheme { return e.scheme }

// factor splits q into P1×P2, both powers of two, as square as possible.
func factor(q int) (p1, p2 int, err error) {
	if q <= 0 || q&(q-1) != 0 {
		return 0, 0, fmt.Errorf("mpengine: node count %d is not a power of two", q)
	}
	k := 0
	for 1<<k < q {
		k++
	}
	p1 = 1 << (k / 2)
	p2 = q / p1
	return p1, p2, nil
}

// SegmentContext implements core.Engine. Every node folds its view
// of ctx into the max-reductions that already punctuate the split handoff
// and each merge round, so all nodes abort together (within one iteration)
// and the simulated cluster always joins — no goroutine outlives the call.
// Stage events are emitted by node 0 only, from its node goroutine.
func (e *Engine) SegmentContext(ctx context.Context, im *pixmap.Image, cfg core.Config, run core.Run) (*core.Segmentation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p1, p2, err := factor(e.nodes)
	if err != nil {
		return nil, err
	}
	if im.W%p2 != 0 || im.H%p1 != 0 {
		return nil, fmt.Errorf("mpengine: image %dx%d not divisible by node grid %dx%d", im.W, im.H, p1, p2)
	}
	tw, th := im.W/p2, im.H/p1
	cap := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, im.W, im.H)
	if tw%cap != 0 || th%cap != 0 {
		return nil, fmt.Errorf("mpengine: tile %dx%d not aligned to square cap %d", tw, th, cap)
	}
	grid := nodeprog.Grid{XStarts: even(im.W, p2), YStarts: even(im.H, p1)}

	results := make([]*nodeprog.Result, e.nodes)
	var r0 *node // rank 0's adapter, which holds the stage clock samples
	run.Emit(core.StageEvent{Kind: core.EventSplitStart})
	t0 := time.Now() //vet:timing total wall-time for Stats; never reaches labels or messages
	_, clusterStats, err := mpvm.Run(e.nodes, e.prof, func(n *mpvm.Node) error {
		x0, y0 := (n.Rank%p2)*tw, (n.Rank/p2)*th
		tile, err := im.SubImage(x0, y0, tw, th)
		if err != nil {
			panic(err)
		}
		nd := &node{n: n, e: e, ctx: ctx, run: run}
		res, err := nodeprog.Run(nd, nodeprog.Node{
			Grid: grid, Rank: n.Rank, Tile: tile, Cap: cap,
			Threshold: cfg.Threshold, Tie: cfg.Tie, Seed: cfg.Seed,
		})
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err // every node saw the same reduction and returns too
		}
		if err != nil {
			// The simulated machine cannot corrupt a payload, so this is a
			// bug; panicking tears the cluster down instead of leaving the
			// peers blocked in their next collective.
			panic(err)
		}
		results[n.Rank] = res
		if n.Rank == 0 {
			r0 = nd
		}
		return nil
	})
	totalWall := time.Since(t0) //vet:timing total wall-time for Stats; never reaches labels or messages
	if err != nil {
		return nil, err
	}

	seg := nodeprog.Assemble(im, grid, results, totalWall)
	seg.SplitSim = r0.simSplit
	seg.MergeSim = r0.simTotal - r0.simSplit
	seg.Comm = &core.CommStats{
		Messages:  clusterStats.Messages,
		Words:     clusterStats.Words,
		Barriers:  clusterStats.Barriers,
		Gathers:   clusterStats.Gathers,
		Reduces:   clusterStats.Reduces,
		LPSteps:   clusterStats.LPSteps,
		Exchanges: clusterStats.Exchanges,
	}
	run.Emit(core.StageEvent{Kind: core.EventMergeDone, Iterations: seg.MergeIterations, Regions: seg.FinalRegions})
	return seg, nil
}

// even returns parts+1 boundaries splitting [0, n) into equal spans.
func even(n, parts int) []int {
	starts := make([]int, parts+1)
	for i := range starts {
		starts[i] = i * n / parts
	}
	return starts
}

// ctxErr returns ctx's error, falling back to context.Canceled for the
// window where a peer observed cancellation first and this node's own
// check has not caught up.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// node runs the node program on one simulated CM-5 node: nodeprog's
// collectives map onto mpvm's, and its cost hooks onto the node's clock.
type node struct {
	n   *mpvm.Node
	e   *Engine
	ctx context.Context
	run core.Run
	tag int // exchange tag, advanced per exchange

	simSplit, simTotal float64
}

// AllReduceMax folds the node's view of ctx into the reduction: a
// cancelled node contributes cancelCode, and a result at or above it
// aborts every node together.
func (nd *node) AllReduceMax(v int) (int, error) {
	if nd.ctx.Err() != nil {
		v |= cancelCode
	}
	red := nd.n.AllReduceMax(v)
	if red >= cancelCode {
		return 0, ctxErr(nd.ctx)
	}
	return red, nil
}

func (nd *node) AllReduceSum(v int) (int, error) { return nd.n.AllReduceSum(v), nil }

func (nd *node) AllGather(data []int32) ([]int32, error) {
	return slices.Concat(nd.n.AllGather(data)...), nil
}

// Exchange runs the engine's irregular-communication scheme (LP or Async).
func (nd *node) Exchange(out map[int][]int32) ([][]int32, error) {
	nd.tag += 64
	recv := nd.n.Exchange(out, nd.e.scheme, 1000+nd.tag)
	var in [][]int32
	for _, src := range slices.Sorted(maps.Keys(recv)) {
		in = append(in, recv[src])
	}
	return in, nil
}

// Neighbours sends the strips point to point, then receives each peer's
// reply in the same order. A strip travels with its side's tag (101–104
// for east, west, south, north); the peer's reply carries the opposite
// side's.
func (nd *node) Neighbours(out []nodeprog.Strip) ([][]int32, error) {
	for _, s := range out {
		nd.n.Send(s.Peer, 101+int(s.Dir), s.Data)
	}
	in := make([][]int32, len(out))
	for i, s := range out {
		in[i] = nd.n.Recv(s.Peer, 101+int(s.Dir^1)).Data
	}
	return in, nil
}

func (nd *node) Emit(ev core.StageEvent) error {
	nd.run.Emit(ev)
	return nil
}

func (nd *node) Charge(ops int) { nd.n.Charge(ops) }

// Phase charges the node program's fixed costs (see machine.Profile) and
// places the barriers and clock samples that delimit the stages.
func (nd *node) Phase(p nodeprog.Phase, n int) {
	prof := nd.e.prof
	switch p {
	case nodeprog.PhaseSplit:
		nd.n.ChargeTime(float64(n) * prof.TSplitLevel)
	case nodeprog.PhaseSplitAgreed:
		nd.n.Barrier()
		nd.simSplit = nd.n.Clock()
	case nodeprog.PhaseGraph:
		nd.n.Barrier()
	case nodeprog.PhaseRound:
		nd.n.ChargeTime(prof.TMergeIterFixed + prof.TMergeIterPixel*float64(n))
	case nodeprog.PhaseDone:
		nd.n.Barrier()
		nd.simTotal = nd.n.Clock()
	}
}

var (
	_ core.Engine          = (*Engine)(nil)
	_ nodeprog.Collectives = (*node)(nil)
)
