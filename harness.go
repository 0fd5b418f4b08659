package regiongrow

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"regiongrow/internal/core"
	"regiongrow/internal/machine"
	"regiongrow/internal/stats"
)

// RunProfiled executes fn under optional pprof capture: a CPU profile
// covering exactly fn's execution when cpuPath is non-empty, and a post-GC
// heap profile taken after fn returns when memPath is non-empty. Either
// path may be empty to skip that profile; with both empty fn just runs.
// This is the capture path the bench harness and cmd/benchtab share, so
// the profiles CI archives are taken the same way as the ones used to
// rank split, RAG build, and merge during optimisation work.
//
// fn's error is returned as-is once capture is complete; profile-file
// errors are only reported when fn itself succeeded.
func RunProfiled(cpuPath, memPath string, fn func() error) error {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("regiongrow: creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("regiongrow: starting CPU profile: %w", err)
		}
		cpuFile = f
	}
	err := fn()
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("regiongrow: closing CPU profile: %w", cerr)
		}
	}
	if memPath != "" {
		runtime.GC() // settle live heap so the profile reflects retained memory
		f, ferr := os.Create(memPath)
		if ferr != nil {
			if err == nil {
				err = fmt.Errorf("regiongrow: creating heap profile: %w", ferr)
			}
			return err
		}
		werr := pprof.Lookup("heap").WriteTo(f, 0)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil && err == nil {
			err = fmt.Errorf("regiongrow: writing heap profile: %w", werr)
		}
	}
	return err
}

// Experiment is one image's results across all five machine
// configurations — the unit the paper's tables report.
type Experiment = stats.Experiment

// Row is one configuration's line in an experiment table.
type Row = stats.Row

// RunExperiment executes one of the paper's six experiments: it generates
// the image, runs all five machine configurations, and returns the table.
// Each configuration uses a distinct derived seed for the Random tie
// policy, reflecting the paper's observation that merge iteration counts
// vary across implementations. Each of the five engine runs goes through a
// Segmenter, so cancelling ctx (or exceeding a deadline, as cmd/benchtab's
// -timeout does) aborts the in-flight run within one iteration and returns
// ctx.Err().
func RunExperiment(ctx context.Context, id PaperImageID, cfg Config) (Experiment, error) {
	im := GeneratePaperImage(id)
	exp := Experiment{Image: id}
	for _, kind := range AllEngineKinds() {
		mc, ok := kind.MachineConfig()
		if !ok {
			continue // models no machine, so has no row in the paper's tables
		}
		eng, err := New(kind)
		if err != nil {
			return exp, err
		}
		runCfg := ExperimentConfig(kind, cfg)
		seg, err := eng.Segment(ctx, im, runCfg)
		if err != nil {
			return exp, fmt.Errorf("regiongrow: %v on %v: %w", kind, id, err)
		}
		if err := Validate(seg, im, runCfg); err != nil {
			return exp, fmt.Errorf("regiongrow: %v on %v produced invalid segmentation: %w", kind, id, err)
		}
		exp.Rows = append(exp.Rows, stats.Row{
			Config:     mc,
			SplitSecs:  seg.SplitSim,
			SplitIters: seg.SplitIterations,
			MergeSecs:  seg.MergeSim,
			MergeIters: seg.MergeIterations,
			WallSplit:  seg.SplitWall.Seconds(),
			WallMerge:  seg.MergeWall.Seconds(),
		})
		exp.SquaresAfterSplit = seg.SquaresAfterSplit
		exp.FinalRegions = seg.FinalRegions
	}
	return exp, nil
}

// ExperimentConfig returns the exact per-row Config RunExperiment uses
// for an engine kind. Rows that run the same program share random draws —
// the paper executed one CM Fortran binary on the CM-2s and the CM-5, and
// one F77+CMMD binary under both schemes — so under the Random tie policy
// the seed is derived from the kind's programming model, not the machine:
// iteration counts then vary between models (as in the paper's tables)
// while same-program rows stay comparable. Deterministic ties, and kinds
// that model no machine, use cfg unchanged. Remote row sources
// (cmd/benchtab -server) apply it so client-driven experiments match
// local ones row for row.
func ExperimentConfig(kind EngineKind, cfg Config) Config {
	if cfg.Tie != RandomTie {
		return cfg
	}
	mc, ok := kind.MachineConfig()
	if !ok {
		return cfg
	}
	model := uint64(1)
	if mc.IsMessagePassing() {
		model = 2
	}
	cfg.Seed = cfg.Seed*1000003 + model
	return cfg
}

// NativeRow runs the native shared-memory engine on one paper image and
// returns its table row. The simulated-seconds columns are zero — the
// native engine models no machine — and the host timings land in
// WallSplit/WallMerge. The row uses the seed exactly as configured (the
// native engine's segmentations must match the sequential engine's for
// equal seeds, so there is no per-model seed derivation).
func NativeRow(ctx context.Context, id PaperImageID, cfg Config) (Row, error) {
	return hostRow(ctx, NativeParallel, machine.HostNative, id, cfg)
}

// ClusterRow runs the distributed engine against the given
// regiongrow-worker addresses on one paper image and returns its table
// row. Like NativeRow, the simulated-seconds columns are zero (the
// distributed engine models no machine) and the real wall timings land in
// WallSplit/WallMerge; the seed is used exactly as configured because the
// distributed labels must match the sequential engine's.
func ClusterRow(ctx context.Context, addrs []string, id PaperImageID, cfg Config) (Row, error) {
	return hostRow(ctx, Distributed, machine.HostCluster, id, cfg, WithClusterWorkers(addrs))
}

// hostRow runs a session of a host engine kind on one paper image,
// validates the result, and returns its row with host wall times.
func hostRow(ctx context.Context, kind EngineKind, mc machine.ConfigID, id PaperImageID, cfg Config, opts ...Option) (Row, error) {
	sess, err := New(kind, opts...)
	if err != nil {
		return Row{}, err
	}
	im := GeneratePaperImage(id)
	seg, err := sess.Segment(ctx, im, cfg)
	if err != nil {
		return Row{}, fmt.Errorf("regiongrow: %v on %v: %w", kind, id, err)
	}
	if err := Validate(seg, im, cfg); err != nil {
		return Row{}, fmt.Errorf("regiongrow: %v on %v produced invalid segmentation: %w", kind, id, err)
	}
	return Row{
		Config:     mc,
		SplitIters: seg.SplitIterations,
		MergeIters: seg.MergeIterations,
		WallSplit:  seg.SplitWall.Seconds(),
		WallMerge:  seg.MergeWall.Seconds(),
	}, nil
}

// SegmentSerial runs the serial merge baseline (one merge per iteration —
// the R−1 worst case of the paper's complexity analysis) with the
// sequential split. Use it to quantify what parallel mutual merging buys;
// cancelling ctx aborts it within one merge. A cfg that fails
// Config.Check is refused with that error before any work.
func SegmentSerial(ctx context.Context, im *Image, cfg Config) (*Segmentation, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	return core.SerialBaseline{}.SegmentContext(ctx, im, cfg, core.Run{})
}

// RunExperimentWithNative runs the paper's five rows (RunExperiment) and
// appends a sixth row for the native shared-memory engine. The paper's
// tables keep their five-row shape by default; callers opt into the extra
// row with this helper.
func RunExperimentWithNative(ctx context.Context, id PaperImageID, cfg Config) (Experiment, error) {
	exp, err := RunExperiment(ctx, id, cfg)
	if err != nil {
		return exp, err
	}
	row, err := NativeRow(ctx, id, cfg)
	if err != nil {
		return exp, err
	}
	exp.Rows = append(exp.Rows, row)
	return exp, nil
}

// DefaultConfig is the evaluation configuration: threshold 10, random
// tie-breaking (the paper's recommended policy), seed 1.
func DefaultConfig() Config {
	return Config{Threshold: 10, Tie: RandomTie, Seed: 1}
}

// RunAllExperiments runs the six experiments with the default
// configuration; cancellation aborts the in-flight run and returns
// ctx.Err().
func RunAllExperiments(ctx context.Context) ([]Experiment, error) {
	var out []Experiment
	for _, id := range AllPaperImageIDs() {
		exp, err := RunExperiment(ctx, id, DefaultConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, exp)
	}
	return out, nil
}

// WriteTable renders one experiment in the paper's table layout.
func WriteTable(w io.Writer, exp Experiment) { stats.RenderTable(w, exp) }

// WriteFigure3 renders the merge-time comparison bar chart over all
// experiments (the paper's Figure 3).
func WriteFigure3(w io.Writer, exps []Experiment) {
	stats.BarChart(w, "Figure 3: Comparison of Times Taken by the Merge Stage (Images 1-6)", exps)
}

// CheckOrderings verifies the paper's qualitative merge-time orderings
// (async < LP < CM Fortran on CM-5; CM2-16K < CM2-8K < CM5 CM Fortran)
// and returns any violations.
func CheckOrderings(exps []Experiment) []string { return stats.Orderings(exps) }
