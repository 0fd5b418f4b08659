package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
	"regiongrow/internal/unionfind"
)

// Config parameterises a segmentation run.
type Config struct {
	// Threshold T of the pixel-range homogeneity criterion.
	Threshold int
	// Tie selects the tie-breaking policy of the merge stage.
	Tie rag.TiePolicy
	// Seed drives the Random tie policy. Runs with equal seeds are
	// byte-identical.
	Seed uint64
	// MaxSquare caps split-stage square size; see quadsplit.Options.
	MaxSquare int
}

// ErrInvalidConfig is wrapped by the error of every entry point that
// refuses a Config the engines cannot run.
var ErrInvalidConfig = errors.New("regiongrow: invalid config")

// Check returns an error wrapping ErrInvalidConfig when c has an unknown
// tie policy, a negative threshold, or a square cap below Unbounded (−1);
// every seed is valid. Entry points call it before any work, so a bad
// value is refused up front instead of panicking inside an engine.
func (c Config) Check() error {
	switch {
	case !slices.Contains(rag.AllTiePolicies(), c.Tie):
		return fmt.Errorf("%w: unknown tie policy %d (want %s)", ErrInvalidConfig, int(c.Tie), rag.TiePolicyNames())
	case c.Threshold < 0:
		return fmt.Errorf("%w: negative threshold %d", ErrInvalidConfig, c.Threshold)
	case c.MaxSquare < quadsplit.Unbounded:
		return fmt.Errorf("%w: max square %d (want -1 unbounded, 0 default, or a positive cap)", ErrInvalidConfig, c.MaxSquare)
	}
	return nil
}

// RegionInfo summarises one final region: its ID, intensity interval and
// area. It is the region the merged graph reports, so the host pipeline
// takes its list straight from the arena.
type RegionInfo = rag.Region

// Segmentation is the result of a full split+merge run.
type Segmentation struct {
	W, H int
	// Labels assigns every pixel the ID of its final region (the smallest
	// linear pixel index among the region's constituent squares' origins).
	Labels []int32
	// Regions lists final regions in ascending ID order.
	Regions []RegionInfo

	// The statistics the paper's tables report.
	SplitIterations   int
	MergeIterations   int
	SquaresAfterSplit int
	FinalRegions      int

	// MergesPerIter records merges in each merge iteration (the paper's
	// randomness discussion is about this distribution).
	MergesPerIter []int
	// ForcedResolutions counts forced SmallestID rounds under Random.
	ForcedResolutions int

	// Wall-clock stage durations of this process.
	SplitWall, MergeWall time.Duration
	// Simulated stage times in seconds under a machine cost model; zero
	// for the sequential engine, which models no machine.
	SplitSim, MergeSim float64

	// Comm holds communication counters for the message-passing engine
	// (nil for other engines).
	Comm *CommStats
}

// CommStats counts the communication a message-passing run performed.
type CommStats struct {
	// Messages and Words are point-to-point totals across all nodes.
	Messages, Words int64
	// Barriers, Gathers, and Reduces count collective episodes.
	Barriers, Gathers, Reduces int64
	// LPSteps counts Linear Permutation ring steps (zero under Async).
	LPSteps int64
	// Exchanges counts irregular all-to-many exchanges.
	Exchanges int64
	// Retries counts whole-job re-runs the distributed engine performed
	// after losing a worker mid-job (zero everywhere else). The other
	// counters describe the final, successful attempt only.
	Retries int64
}

// Engine runs the split-and-merge algorithm in one of the paper's
// programming models. It is the one contract every execution model
// implements: cancellation via ctx (checked at split-pass and merge-round
// boundaries — cancelling mid-run returns ctx.Err() within one
// iteration), progress and buffer reuse via run.
type Engine interface {
	// Name identifies the engine in experiment records.
	Name() string
	// SegmentContext produces the segmentation of the image under cfg.
	SegmentContext(ctx context.Context, im *pixmap.Image, cfg Config, run Run) (*Segmentation, error)
}

// Sequential is the single-threaded reference engine.
type Sequential struct{}

// Name implements Engine.
func (Sequential) Name() string { return "sequential" }

// SegmentContext implements Engine: the pipeline on one goroutine, with
// the shared RAG merge kernel (one stage event per merge round).
func (Sequential) SegmentContext(ctx context.Context, im *pixmap.Image, cfg Config, run Run) (*Segmentation, error) {
	return pipeline(ctx, im, cfg, run, 1, mergeRounds)
}

// Native is the host-parallel engine: Sequential's pipeline with the
// split's level passes and claim run in cap-aligned row bands on Workers
// goroutines. The graph build, the merge rounds and the relabel are
// Sequential's, so its output is too.
type Native struct {
	// Workers is the goroutine count; ≤ 0 follows GOMAXPROCS.
	Workers int
}

// Name implements Engine.
func (Native) Name() string { return "native" }

// SegmentContext implements Engine: the split checks ctx between its
// level passes, and every band goroutine has exited by the time it
// returns.
func (n Native) SegmentContext(ctx context.Context, im *pixmap.Image, cfg Config, run Run) (*Segmentation, error) {
	workers := n.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return pipeline(ctx, im, cfg, run, workers, mergeRounds)
}

// mergeRounds is the merge stage of Sequential and Native: the mutual
// best-neighbour rounds, one stage event per round.
func mergeRounds(ctx context.Context, g *rag.Graph, cfg Config, run Run) (rag.MergeStats, error) {
	return g.MergeAll(ctx, cfg.Tie, cfg.Seed, func(iter, merged int) {
		run.Emit(StageEvent{Kind: EventMergeIteration, Iteration: iter, Merges: merged})
	})
}

// pipeline is the one host pipeline every host engine runs: split
// (checking ctx at every pass, buffers from run.Scratch), graph build,
// the engine's merge stage, and the finalize, with the stage events
// around them. The split runs in at most workers row bands, one
// goroutine each (quadsplit.Options.Workers). The graph is built from
// the split's square and edge lists (rag.Graph.AddSquares), and the
// finalize paints the labels from the squares and reads the region list
// off the merged graph (rag.Graph.Relabel): no stage before it writes or
// reads a per-pixel raster.
func pipeline(ctx context.Context, im *pixmap.Image, cfg Config, run Run, workers int,
	merge func(ctx context.Context, g *rag.Graph, cfg Config, run Run) (rag.MergeStats, error)) (*Segmentation, error) {
	run.Emit(StageEvent{Kind: EventSplitStart})
	t0 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	sp, err := quadsplit.Split(ctx, im, cfg.Threshold,
		quadsplit.Options{MaxSquare: cfg.MaxSquare, Workers: workers, Scratch: run.Scratch})
	if err != nil {
		return nil, err
	}
	splitWall := time.Since(t0) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	run.Emit(StageEvent{Kind: EventSplitDone, Iterations: sp.Iterations, Squares: len(sp.Squares)})

	t1 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	g := rag.NewGraph(cfg.Threshold)
	if err := g.AddSquares(ctx, sp.Squares, sp.Edges, im.W, 0, im.W); err != nil {
		return nil, err
	}
	run.Emit(StageEvent{Kind: EventGraphDone, Squares: len(sp.Squares)})
	stats, err := merge(ctx, g, cfg, run)
	if err != nil {
		return nil, err
	}
	labels, regions := g.Relabel(sp.Squares, im.W, im.H)
	mergeWall := time.Since(t1) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes

	seg := &Segmentation{
		W: im.W, H: im.H,
		Labels:            labels,
		Regions:           regions,
		SplitIterations:   sp.Iterations,
		MergeIterations:   stats.Iterations,
		SquaresAfterSplit: len(sp.Squares),
		FinalRegions:      len(regions),
		MergesPerIter:     stats.MergesPerIter,
		ForcedResolutions: stats.ForcedResolutions,
		SplitWall:         splitWall,
		MergeWall:         mergeWall,
	}
	run.Emit(StageEvent{Kind: EventMergeDone, Iterations: stats.Iterations, Regions: seg.FinalRegions})
	return seg, nil
}

// components returns the number of 4-connected components of a label
// raster w labels wide. Its row runs are the nodes of a union-find, and
// each pair of runs of one label that touch vertically is united once: a
// run is connected within itself, and two runs of a row never touch.
func components(labels []int32, w int) int {
	if len(labels) == 0 {
		return 0
	}
	runs := func(row []int32) int {
		n := 1
		for x := 1; x < len(row); x++ {
			if row[x] != row[x-1] {
				n++
			}
		}
		return n
	}
	total := 0
	for y := 0; y < len(labels); y += w {
		total += runs(labels[y : y+w])
	}
	d := unionfind.New(total)
	// Runs are numbered in raster order; a and b are the runs of the row
	// above and of the row at x.
	firstAbove, first := 0, runs(labels[:w])
	for y := w; y < len(labels); y += w {
		above, row := labels[y-w:y], labels[y:y+w]
		a, b := firstAbove, first
		if above[0] == row[0] {
			d.Union(a, b)
		}
		for x := 1; x < w; x++ {
			na, nb := above[x] != above[x-1], row[x] != row[x-1]
			if na {
				a++
			}
			if nb {
				b++
			}
			if (na || nb) && above[x] == row[x] {
				d.Union(a, b)
			}
		}
		firstAbove, first = first, b+1
	}
	return d.Sets()
}

// FillRegions recomputes the Regions list and FinalRegions count from the
// label array, for the engines that assemble labels without a final
// graph (dpengine, mpengine, distengine). It walks each row's label
// runs: one map access and one packed min/max scan per run, not a map
// update per pixel.
func (s *Segmentation) FillRegions(im *pixmap.Image) {
	info := make(map[int32]*RegionInfo)
	for y := 0; y < im.H; y++ {
		row, pix := s.Labels[y*im.W:(y+1)*im.W], im.Pix[y*im.W:(y+1)*im.W]
		for x := 0; x < len(row); {
			lab, x0 := row[x], x
			for x < len(row) && row[x] == lab {
				x++
			}
			ri, ok := info[lab]
			if !ok {
				ri = &RegionInfo{ID: lab, IV: homog.Empty()}
				info[lab] = ri
			}
			lo, hi := homog.RowMinMax(pix[x0:x])
			ri.Area += x - x0
			ri.IV = ri.IV.Union(homog.Interval{Lo: lo, Hi: hi})
		}
	}
	s.Regions = s.Regions[:0]
	for _, ri := range info {
		s.Regions = append(s.Regions, *ri)
	}
	sort.Slice(s.Regions, func(i, j int) bool { return s.Regions[i].ID < s.Regions[j].ID })
	s.FinalRegions = len(s.Regions)
}

// EqualLabels reports whether two segmentations assign identical labels.
func (s *Segmentation) EqualLabels(other *Segmentation) bool {
	if s.W != other.W || s.H != other.H || len(s.Labels) != len(other.Labels) {
		return false
	}
	for i, l := range s.Labels {
		if l != other.Labels[i] {
			return false
		}
	}
	return true
}

// SerialBaseline is the merge-stage baseline of the paper's complexity
// section: one merge per iteration (the globally best active edge), the
// R−1-iteration worst case against which the parallel mutual-merge
// kernel's log R best case is measured. The split stage is identical to
// the Sequential engine's.
type SerialBaseline struct{}

// Name implements Engine.
func (SerialBaseline) Name() string { return "serial-baseline" }

// SegmentContext implements Engine for the baseline: cancellation at
// every one-merge iteration, the same split and completion events as the
// real engines.
func (SerialBaseline) SegmentContext(ctx context.Context, im *pixmap.Image, cfg Config, run Run) (*Segmentation, error) {
	return pipeline(ctx, im, cfg, run, 1, func(ctx context.Context, g *rag.Graph, _ Config, _ Run) (rag.MergeStats, error) {
		return g.MergeSerial(ctx)
	})
}

// Compile-time contract: the host engines implement Engine.
var (
	_ Engine = Sequential{}
	_ Engine = Native{}
	_ Engine = SerialBaseline{}
)

// Validate checks the postconditions of a completed segmentation against
// the source image under threshold T:
//
//  1. labels form a partition and each region's ID is the minimum pixel
//     index at which its label occurs;
//  2. every region is 4-connected;
//  3. every region's pixel range, over its actual pixels, is at most
//     threshold;
//  4. termination: no two 4-adjacent regions could still merge (the range
//     of the union of their intervals exceeds threshold) — the defining
//     property of a finished merge stage.
//
// It makes one pass per property over the raster, with no map: (1) makes
// every label an index into the raster, so the regions' intervals fold
// into one array indexed by label, and (2) unites row runs, not pixels.
func Validate(s *Segmentation, im *pixmap.Image, threshold int) error {
	if s.W != im.W || s.H != im.H || len(s.Labels) != im.W*im.H {
		return fmt.Errorf("core: segmentation shape %dx%d/%d does not match image %dx%d",
			s.W, s.H, len(s.Labels), im.W, im.H)
	}
	labels, w := s.Labels, im.W
	// (1) A label L at pixel i with 0 ≤ L ≤ i and labels[L] == L is the
	// first index at which L occurs. Each pixel folds into its region's
	// interval, which its anchor pixel L starts.
	ivs := make([]homog.Interval, len(labels))
	regions := 0
	for i, lab := range labels {
		if lab < 0 || int(lab) > i || labels[lab] != lab {
			return fmt.Errorf("core: pixel %d has label %d, which is not the first pixel index of its label", i, lab)
		}
		v := im.Pix[i]
		if int(lab) == i {
			ivs[i] = homog.Point(v)
			regions++
		}
		ivs[lab].Lo, ivs[lab].Hi = min(ivs[lab].Lo, v), max(ivs[lab].Hi, v)
	}
	// (2) connectivity: one connected component per label.
	if sets := components(labels, w); sets != regions {
		return fmt.Errorf("core: %d labels but %d connected components — some region is disconnected",
			regions, sets)
	}
	// (3) per-region homogeneity over actual pixels, read at each anchor.
	for i, lab := range labels {
		if int(lab) == i && ivs[i].Range() > threshold {
			return fmt.Errorf("core: region %d inhomogeneous: %v", lab, ivs[i])
		}
	}
	// (4) no adjacent pair still mergeable: every east (k = 0) and south
	// pair of different labels. East is told by k, not by j == i+1, which
	// at w = 1 is the south neighbour too.
	for i, a := range labels {
		for k, j := range [2]int{i + 1, i + w} {
			if k == 0 && j%w == 0 || j >= len(labels) || labels[j] == a {
				continue
			}
			b := labels[j]
			if ivs[a].Union(ivs[b]).Range() <= threshold {
				return fmt.Errorf("core: adjacent regions %d and %d could still merge (%v ∪ %v)",
					min(a, b), max(a, b), ivs[min(a, b)], ivs[max(a, b)])
			}
		}
	}
	return nil
}
