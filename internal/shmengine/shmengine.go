package shmengine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// Engine is the native shared-memory engine.
type Engine struct {
	// workers is the worker pool size; 0 follows GOMAXPROCS at Segment time.
	workers int
}

// New returns a native engine whose worker pool follows GOMAXPROCS.
func New() *Engine { return &Engine{} }

// NewWithWorkers returns a native engine with a fixed worker pool size.
// n <= 0 follows GOMAXPROCS.
func NewWithWorkers(n int) *Engine { return &Engine{workers: n} }

// Name implements core.Engine.
func (e *Engine) Name() string { return "native" }

// Workers returns the effective worker pool size.
func (e *Engine) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// SegmentContext implements core.Engine: tile workers check ctx at
// tile boundaries, the RAG build at band boundaries, and the merge driver
// before every round, so cancellation lands within one iteration and every
// worker goroutine has drained by the time the error returns.
func (e *Engine) SegmentContext(ctx context.Context, im *pixmap.Image, cfg core.Config, run core.Run) (*core.Segmentation, error) {
	workers := e.Workers()
	crit := cfg.Criterion()

	run.Emit(core.StageEvent{Kind: core.EventSplitStart})
	t0 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	sp, err := quadsplit.SplitParallel(ctx, im, crit,
		quadsplit.Options{MaxSquare: cfg.MaxSquare, Scratch: run.SplitScratch()}, workers)
	if err != nil {
		return nil, err
	}
	splitWall := time.Since(t0) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	run.Emit(core.StageEvent{Kind: core.EventSplitDone, Iterations: sp.Iterations, Squares: sp.NumSquares})

	t1 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	g, err := buildRAG(ctx, im, sp.Labels, crit, sp.MaxSquareUsed, workers)
	if err != nil {
		return nil, err
	}
	run.Emit(core.StageEvent{Kind: core.EventGraphDone, Squares: sp.NumSquares})
	stats, asg, err := mergeAll(ctx, g, cfg.Tie, cfg.Seed, workers, run)
	if err != nil {
		return nil, err
	}
	labels := relabel(sp.Labels, g, asg, workers)
	mergeWall := time.Since(t1) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes

	seg := &core.Segmentation{
		W: im.W, H: im.H,
		Labels:            labels,
		SplitIterations:   sp.Iterations,
		MergeIterations:   stats.Iterations,
		SquaresAfterSplit: sp.NumSquares,
		MergesPerIter:     stats.MergesPerIter,
		ForcedResolutions: stats.ForcedResolutions,
		SplitWall:         splitWall,
		MergeWall:         mergeWall,
	}
	seg.FillRegions(im)
	run.Emit(core.StageEvent{Kind: core.EventMergeDone, Iterations: stats.Iterations, Regions: seg.FinalRegions})
	return seg, nil
}

// parallel runs fn over [0, n) in contiguous chunks on up to `workers`
// goroutines and waits for completion.
func parallel(workers, n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := min(start+chunk, n)
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(start, end)
	}
	wg.Wait()
}

// buildRAG constructs the region adjacency graph of the split labelling on
// the worker pool. Split regions are squares no larger than the cap and
// aligned to their own size, so a row band whose height is a multiple of
// the cap contains only whole regions: each band yields a complete partial
// graph (full vertex intervals, every intra-band edge — built by the
// run-length rag builder over a band-sized image view), and the bands are
// grafted into one arena in band order and stitched by adding the edges
// that cross band boundaries.
func buildRAG(ctx context.Context, im *pixmap.Image, labels []int32, crit homog.Criterion, cap, workers int) (*rag.Graph, error) {
	w, h := im.W, im.H
	g := rag.NewGraph(crit)
	if w == 0 || h == 0 {
		return g, nil
	}
	if cap < 1 {
		cap = 1
	}
	blocks := (h + cap - 1) / cap
	bands := min(workers, blocks)
	perBand := (blocks + bands - 1) / bands

	// Band extents in rows; the last band absorbs the remainder.
	starts := make([]int, 0, bands)
	ends := make([]int, 0, bands)
	for b := 0; b < bands; b++ {
		y0 := b * perBand * cap
		y1 := min((b+1)*perBand*cap, h)
		if y0 >= y1 {
			break
		}
		starts = append(starts, y0)
		ends = append(ends, y1)
	}

	partial := make([]*rag.Graph, len(starts))
	parallel(workers, len(starts), func(s, e int) {
		for b := s; b < e; b++ {
			y0, y1 := starts[b], ends[b]
			band := &pixmap.Image{W: w, H: y1 - y0, Pix: im.Pix[y0*w : y1*w]}
			// Cancellation is checked inside the builder; a cancelled band
			// stays nil and is discarded below.
			bg, err := rag.BuildFromLabels(ctx, band, labels[y0*w:y1*w], crit)
			if err != nil {
				return
			}
			partial[b] = bg
		}
	})

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Graft the partial graphs (vertex ID sets are disjoint across bands)
	// and stitch the edges crossing each band boundary.
	//vet:noctx bounded graft of at most workers partial graphs, right after the ctx check above; cannot block
	for _, bg := range partial {
		g.Absorb(bg)
	}
	//vet:noctx bounded stitch over at most workers-1 band boundaries, right after the ctx check above; cannot block
	for _, y1 := range ends {
		if y1 >= h {
			continue
		}
		row := (y1 - 1) * w
		for x := 0; x < w; x++ {
			i := row + x
			if labels[i] != labels[i+w] {
				g.AddEdge(labels[i], labels[i+w])
			}
		}
	}
	return g, nil
}

// mergeAll is the parallel twin of rag.(*Graph).MergeAll: the same
// rag.Drive control loop, with the per-vertex choice computation and the
// active-edge test fanned out over the worker pool as read-only scans of
// the arena. Because choices are pure functions of the graph snapshot,
// the result is identical to the sequential kernel's.
func mergeAll(ctx context.Context, g *rag.Graph, policy rag.TiePolicy, seed uint64, workers int, run core.Run) (rag.MergeStats, *rag.Assignments, error) {
	asg := rag.NewAssignments()
	var choices []int32 // slot-indexed scratch reused across rounds
	stats, err := rag.Drive(ctx, policy,
		func() bool { return hasActiveEdge(g, workers) },
		func(effective rag.TiePolicy, iter int) int {
			var merged int
			merged, choices = mergeIteration(g, effective, seed, iter, asg, workers, choices)
			run.Emit(core.StageEvent{Kind: core.EventMergeIteration, Iteration: iter, Merges: merged})
			return merged
		})
	return stats, asg, err
}

// hasActiveEdge reports whether any edge still satisfies the criterion,
// scanning slot adjacencies in parallel with an early-exit flag.
func hasActiveEdge(g *rag.Graph, workers int) bool {
	var found atomic.Bool
	parallel(workers, g.Slots(), func(s, e int) {
		for i := s; i < e && !found.Load(); i++ {
			if g.SlotAlive(i) && g.SlotHasActive(i) {
				found.Store(true)
				return
			}
		}
	})
	return found.Load()
}

// mergeIteration executes one merge round: parallel choice computation
// into a slot-indexed array, then mutual-pair detection and contraction of
// the (disjoint) pairs from the smaller-ID endpoint — the full-scan round
// rag.MergeAll computes incrementally, so the result is byte-identical to
// the sequential kernel. It returns the number of pairs merged and the
// (possibly grown) choice scratch.
func mergeIteration(g *rag.Graph, policy rag.TiePolicy, seed uint64, iter int, asg *rag.Assignments, workers int, choices []int32) (int, []int32) {
	n := g.Slots()
	if cap(choices) < n {
		choices = make([]int32, n)
	}
	choices = choices[:n]
	parallel(workers, n, func(s, e int) {
		var tied []int32 // per-chunk tie scratch, amortised across slots
		for i := s; i < e; i++ {
			if !g.SlotAlive(i) {
				choices[i] = -1
				continue
			}
			var c int
			c, tied = g.SlotChoice(i, policy, seed, iter, tied)
			choices[i] = int32(c)
		}
	})

	merged := 0
	for s := 0; s < n; s++ {
		c := choices[s]
		if c < 0 || int(choices[c]) != s || g.SlotID(s) >= g.SlotID(int(c)) {
			continue
		}
		g.ContractSlots(s, int(c))
		asg.Record(g.SlotID(int(c)), g.SlotID(s))
		merged++
	}
	return merged, choices
}

// relabel maps split-stage labels through the merge assignments. Roots are
// resolved once per region sequentially (Find compresses paths, so it must
// not race); the per-pixel mapping then fans out over the pool, with a
// last-label run cache keeping most pixels off the map.
func relabel(labels []int32, g *rag.Graph, asg *rag.Assignments, workers int) []int32 {
	roots := make(map[int32]int32, g.Slots())
	for s := 0; s < g.Slots(); s++ {
		id := g.SlotID(s)
		roots[id] = asg.Find(id)
	}
	out := make([]int32, len(labels))
	parallel(workers, len(labels), func(s, e int) {
		lastLab, lastRoot := int32(-1), int32(-1) // labels are pixel indices, never negative
		for i := s; i < e; i++ {
			lab := labels[i]
			if lab != lastLab {
				lastLab, lastRoot = lab, roots[lab]
			}
			out[i] = lastRoot
		}
	})
	return out
}

var _ core.Engine = (*Engine)(nil)
