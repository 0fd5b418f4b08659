package dpengine

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/machine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
	"regiongrow/internal/simdvm"
)

const inf = int32(1) << 30

// Engine is the data-parallel engine bound to one machine configuration.
type Engine struct {
	cfg  machine.ConfigID
	prof *machine.Profile
}

// New returns a data-parallel engine simulating the given configuration
// (CM2_8K, CM2_16K, or CM5_CMF).
func New(cfg machine.ConfigID) (*Engine, error) {
	if cfg.IsMessagePassing() {
		return nil, fmt.Errorf("dpengine: %v is a message-passing configuration", cfg)
	}
	return &Engine{cfg: cfg, prof: machine.Get(cfg)}, nil
}

// NewWithProfile returns a data-parallel engine with an explicit cost
// profile — used by calibration tooling and the processor-scaling
// ablation benchmarks.
func NewWithProfile(cfg machine.ConfigID, prof *machine.Profile) *Engine {
	return &Engine{cfg: cfg, prof: prof}
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "data-parallel/" + e.cfg.Short() }

// Config returns the machine configuration the engine simulates.
func (e *Engine) Config() machine.ConfigID { return e.cfg }

// SegmentContext implements core.Engine: the simulated machine is
// driven from the calling goroutine, so cancellation is a plain check at
// every split level and merge round of the simulation loop.
func (e *Engine) SegmentContext(ctx context.Context, im *pixmap.Image, cfg core.Config, run core.Run) (*core.Segmentation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if im.W == 0 || im.H == 0 {
		seg := &core.Segmentation{W: im.W, H: im.H, Labels: []int32{}}
		seg.FillRegions(im)
		return seg, nil
	}
	m := simdvm.New(e.prof)
	seg := &core.Segmentation{W: im.W, H: im.H}

	run.Emit(core.StageEvent{Kind: core.EventSplitStart})
	t0 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	sp, err := e.split(ctx, m, im, cfg)
	if err != nil {
		return nil, err
	}
	seg.SplitIterations = sp.iterations
	seg.SquaresAfterSplit = sp.numSquares
	seg.SplitWall = time.Since(t0) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	seg.SplitSim = m.Clock()
	run.Emit(core.StageEvent{Kind: core.EventSplitDone, Iterations: sp.iterations, Squares: sp.numSquares})

	m.ResetClock()
	t1 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	labels, stats, err := e.merge(ctx, m, im, cfg, sp, run)
	if err != nil {
		return nil, err
	}
	seg.Labels = labels
	seg.MergeIterations = stats.Iterations
	seg.MergesPerIter = stats.MergesPerIter
	seg.ForcedResolutions = stats.ForcedResolutions
	seg.MergeWall = time.Since(t1) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	seg.MergeSim = m.Clock()

	seg.FillRegions(im)
	run.Emit(core.StageEvent{Kind: core.EventMergeDone, Iterations: stats.Iterations, Regions: seg.FinalRegions})
	return seg, nil
}

// splitState carries the split stage's outputs into the merge stage.
type splitState struct {
	iterations int
	numSquares int
	label      *simdvm.Grid // per-pixel region ID (origin pixel index)
}

// split is step 1: strided quad-block combining on 2-D grids.
func (e *Engine) split(ctx context.Context, m *simdvm.Machine, im *pixmap.Image, cfg core.Config) (*splitState, error) {
	w, h := im.W, im.H
	t := int32(cfg.Threshold)

	pix := m.GridFromImage(im)
	lo, hi := pix.Clone(), pix.Clone()
	solid := m.NewBoolGrid(w, h)
	solid.Fill(true)
	col := m.ColIndex(w, h)
	row := m.RowIndex(w, h)

	capSquare := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, w, h)
	maxLevel := bits.Len(uint(capSquare)) - 1

	type levelState struct {
		solid *simdvm.BoolGrid
	}
	levels := []levelState{{solid: solid}}

	st := &splitState{}
	top := 0
	for l := 1; l <= maxLevel; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := 1 << l
		half := s / 2
		// Combine child intervals: bring the east child to the west with a
		// NEWS shift of half, then the south pair north.
		loX := lo.Min(lo.EOShiftX(-half, inf))
		hiX := hi.Max(hi.EOShiftX(-half, -inf))
		lo2 := loX.Min(loX.EOShiftY(-half, inf))
		hi2 := hiX.Max(hiX.EOShiftY(-half, -inf))
		// Combine child solidity the same way.
		sX := solid.And(solid.EOShiftX(-half, false))
		s2 := sX.And(sX.EOShiftY(-half, false))
		// A block forms at aligned origins, fully inside the image, when
		// the combined interval passes the criterion.
		originMask := col.ModC(int32(s)).EqC(0).And(row.ModC(int32(s)).EqC(0))
		inBounds := col.AddC(int32(s)).LeC(int32(w)).And(row.AddC(int32(s)).LeC(int32(h)))
		homogMask := hi2.Sub(lo2).LeC(t)
		newSolid := s2.And(homogMask).And(originMask).And(inBounds)

		combined := newSolid.Count()
		st.iterations++
		levels = append(levels, levelState{solid: newSolid})
		lo, hi, solid = lo2, hi2, newSolid
		if combined == 0 {
			break
		}
		top = l
	}
	if st.iterations == 0 {
		st.iterations = 1 // degenerate cap: the stage still runs one pass
	}

	// Label each pixel with the largest solid block containing it,
	// claiming top-down with router gathers at the block origins.
	label := m.SelfIndex(w, h)
	claimed := m.NewBoolGrid(w, h)
	for l := top; l >= 1; l-- {
		// Each level is a full-grid gather pass; keep the claim stage as
		// cancellable as the combine stage above.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := int32(1 << l)
		ox := col.Sub(col.ModC(s))
		oy := row.Sub(row.ModC(s))
		solidAt := levels[l].solid.ToInt().GatherXY(ox, oy).EqC(1)
		take := solidAt.AndNot(claimed)
		label.AssignWhere(take, oy.MulC(int32(w)).Add(ox))
		claimed = claimed.Or(take)
	}
	st.label = label
	st.numSquares = label.Eq(m.SelfIndex(w, h)).Count()
	return st, nil
}

// merge is steps 2–5: graph construction and iterative mutual merging on
// 1-D parallel arrays.
func (e *Engine) merge(ctx context.Context, m *simdvm.Machine, im *pixmap.Image, cfg core.Config, sp *splitState, run core.Run) ([]int32, rag.MergeStats, error) {
	w, h := im.W, im.H
	n := w * h
	t := int32(cfg.Threshold)
	label := sp.label

	// Step 2a: vertex arrays in the pixel domain, indexed by region ID.
	// Region intervals via combining router sends of every pixel's value
	// to its region's origin.
	pixVec := m.GridFromImage(im).Flatten()
	labelVec := label.Flatten()
	allPix := m.NewBoolVec(n)
	allPix.Fill(true)
	vlo := m.NewVec(n)
	vlo.Fill(inf)
	vhi := m.NewVec(n)
	vhi.Fill(-inf)
	vlo.ScatterMinWhere(allPix, labelVec, pixVec)
	vhi.ScatterMaxWhere(allPix, labelVec, pixVec)

	// Step 2b: edge arrays from boundary pixels. East and south boundary
	// masks yield each adjacency once per direction; concatenating the
	// swapped pair gives the directed edge array.
	col := m.ColIndex(w, h)
	row := m.RowIndex(w, h)
	eastLab := label.EOShiftX(-1, -1)
	southLab := label.EOShiftY(-1, -1)
	eastMask := label.Ne(eastLab).And(col.AddC(1).LeC(int32(w - 1)))
	southMask := label.Ne(southLab).And(row.AddC(1).LeC(int32(h - 1)))
	ePair := m.PackGrid(eastMask, label, eastLab)
	sPair := m.PackGrid(southMask, label, southLab)
	src := m.Concat(ePair[0], sPair[0], ePair[1], sPair[1])
	dst := m.Concat(ePair[1], sPair[1], ePair[0], sPair[0])
	src, dst = sortDedupe(m, src, dst)
	run.Emit(core.StageEvent{Kind: core.EventGraphDone, Squares: sp.numSquares})

	// Representative array for the pixel domain (region IDs point at
	// themselves until merged away).
	rep := m.IotaVec(n)
	iota := m.IotaVec(n)

	var stats rag.MergeStats
	stalls := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		if src.Len() == 0 {
			break
		}
		// Step 3a: edge weights and activity from endpoint intervals.
		slo := vlo.Gather(src)
		shi := vhi.Gather(src)
		dlo := vlo.Gather(dst)
		dhi := vhi.Gather(dst)
		wt := shi.Max(dhi).Sub(slo.Min(dlo))
		active := wt.LeC(t)
		if !active.Any() {
			break
		}
		stats.Iterations++
		policy := cfg.Tie
		if policy == rag.Random && stalls >= 3 {
			policy = rag.SmallestID
			stats.ForcedResolutions++
			stalls = 0
		}

		// Step 3b: per-source best neighbour by segmented min-scan; the
		// edge array is sorted by (src, dst), so ties are ranked in
		// ascending destination order, matching rag's sorted tie list.
		starts := src.SegStarts()
		segMin := wt.SegMinBroadcast(starts, active, inf)
		isTied := active.And(wt.Eq(segMin))
		rank, count := m.SegRankCount(starts, isTied)
		var k *simdvm.Vec
		switch policy {
		case rag.SmallestID:
			k = m.NewVec(src.Len())
		case rag.LargestID:
			k = count.AddC(-1)
		case rag.Random:
			k = src.HashChoice(cfg.Seed, stats.Iterations, count)
		default:
			panic(fmt.Sprintf("dpengine: unknown tie policy %v", policy))
		}
		selected := isTied.And(rank.Eq(k))

		// Step 3c: scatter choices to the vertex domain and detect mutual
		// pairs with a router round-trip.
		choice := m.NewVec(n)
		choice.Fill(-1)
		choice.ScatterWhere(selected, src, dst)
		hasChoice := choice.NeC(-1)
		choiceSafe := choice.MaxC(0)
		partner := choice.Gather(choiceSafe)
		mutual := hasChoice.And(partner.Eq(iota))
		loser := mutual.And(choice.Lt(iota))
		winner := mutual.AndNot(loser)

		// Step 4: the smaller ID absorbs the interval; losers point their
		// representative at the winner; edges are relabelled through the
		// router, then self-loops, dead edges, and duplicates are removed.
		otherLo := vlo.Gather(choiceSafe)
		otherHi := vhi.Gather(choiceSafe)
		vlo.AssignWhere(winner, vlo.Min(otherLo))
		vhi.AssignWhere(winner, vhi.Max(otherHi))
		rep.AssignWhere(loser, choice)

		merges := winner.Count()
		stats.MergesPerIter = append(stats.MergesPerIter, merges)
		run.Emit(core.StageEvent{Kind: core.EventMergeIteration, Iteration: stats.Iterations, Merges: merges})
		if merges == 0 {
			stalls++
		} else {
			stalls = 0
		}

		src = rep.Gather(src)
		dst = rep.Gather(dst)
		keep := src.Ne(dst).And(active)
		packed := m.Pack(keep, src, dst)
		src, dst = sortDedupe(m, packed[0], packed[1])
	}

	// Resolve representative chains and map the split labels through them.
	rep.PointerJump()
	final := rep.Gather(labelVec)
	out := make([]int32, n)
	copy(out, final.Data())
	return out, stats, nil
}

var _ core.Engine = (*Engine)(nil)

// sortDedupe sorts the directed edge array by (src, dst) and removes
// parallel duplicates, returning the compacted arrays.
func sortDedupe(m *simdvm.Machine, src, dst *simdvm.Vec) (*simdvm.Vec, *simdvm.Vec) {
	if src.Len() == 0 {
		return src, dst
	}
	perm := m.SortPairs(src, dst)
	src = src.Gather(perm)
	dst = dst.Gather(perm)
	uniq := m.PairDup(src, dst).Not()
	packed := m.Pack(uniq, src, dst)
	return packed[0], packed[1]
}
