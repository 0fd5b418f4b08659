// Command benchtab regenerates the paper's evaluation: the six per-image
// tables (split/merge times and iteration counts across the five machine
// configurations) and the Figure 3 merge-time bar chart, with the paper's
// published numbers printed alongside.
//
// Usage:
//
//	benchtab [-threshold T] [-seed S] [-tie P] [-native] [-timeout D]
//	         [-server URL] [-cpuprofile F] [-memprofile F]
//
// With -native, each table carries a sixth row for the native
// shared-memory engine (host wall times; it simulates no machine). With
// -timeout, the whole evaluation runs under a deadline: exceeding it
// cancels the in-flight engine run (within one split/merge iteration) and
// exits non-zero.
//
// With -server, no engine runs locally: every row is produced by a
// regiongrowd service at the given base URL, one asynchronous job per
// row through the regiongrow/client SDK. Rows use the same per-model
// seed derivation as local runs (regiongrow.ExperimentConfig), so the
// tables match local ones number for number — the simulated machine
// times travel back in the job results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"regiongrow"
	"regiongrow/client"
	"regiongrow/internal/machine"
	"regiongrow/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtab: ")
	threshold := flag.Int("threshold", 10, "homogeneity threshold T")
	seed := flag.Uint64("seed", 1, "random tie seed")
	tieName := flag.String("tie", "random", "tie policy: "+regiongrow.Enumerate(regiongrow.AllTiePolicies()))
	native := flag.Bool("native", false, "append a native shared-memory engine row to each table")
	timeout := flag.Duration("timeout", 0, "abort the whole evaluation after this duration (0 = no limit)")
	serverURL := flag.String("server", "", "produce every row via a regiongrowd service at this base URL instead of local engines")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the whole evaluation to this file")
	memprofile := flag.String("memprofile", "", "write a post-GC heap profile to this file after the evaluation")
	flag.Parse()

	tie, err := regiongrow.ParseTiePolicy(*tieName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := regiongrow.Config{Threshold: *threshold, Tie: tie, Seed: *seed}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	run := regiongrow.RunExperiment
	if *native {
		run = regiongrow.RunExperimentWithNative
	}
	if *serverURL != "" {
		c, err := client.New(*serverURL)
		if err != nil {
			log.Fatal(err)
		}
		run = func(ctx context.Context, id regiongrow.PaperImageID, cfg regiongrow.Config) (regiongrow.Experiment, error) {
			return serverExperiment(ctx, c, id, cfg, *native)
		}
	}
	var exps []regiongrow.Experiment
	// The profile brackets exactly the engine runs (all six tables), so a
	// capture from a CI run or a local repro ranks split, RAG build, and
	// merge without flag-parsing or table-rendering noise.
	err = regiongrow.RunProfiled(*cpuprofile, *memprofile, func() error {
		for i, id := range regiongrow.AllPaperImageIDs() {
			exp, err := run(ctx, id, cfg)
			if errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("timed out after %v with %d of 6 tables done — raise -timeout", *timeout, i)
			}
			if err != nil {
				return err
			}
			exps = append(exps, exp)
			fmt.Printf("=== Table %d ===\n", i+1)
			regiongrow.WriteTable(os.Stdout, exp)
			fmt.Println()
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	regiongrow.WriteFigure3(os.Stdout, exps)
	fmt.Println()

	if bad := regiongrow.CheckOrderings(exps); len(bad) > 0 {
		fmt.Println("ordering violations (paper claims C2-C5):")
		for _, b := range bad {
			fmt.Println("  ", b)
		}
		os.Exit(1)
	}
	fmt.Println("all paper orderings hold: Async < LP < CM5-CMF and CM2-16K < CM2-8K < CM5-CMF (merge stage)")
}

// serverExperiment reproduces one paper experiment through a regiongrowd
// service: one asynchronous job per machine configuration (plus the
// native row when asked), each under the same per-model derived seed as
// local runs, with the simulated stage times read back from the job
// results.
func serverExperiment(ctx context.Context, c *client.Client, id regiongrow.PaperImageID, cfg regiongrow.Config, native bool) (regiongrow.Experiment, error) {
	exp := regiongrow.Experiment{Image: id}
	for _, kind := range regiongrow.AllEngineKinds() {
		mc, ok := kind.MachineConfig()
		if !ok {
			continue // models no machine, so has no row in the paper's tables
		}
		res, err := serverRow(ctx, c, id, kind, regiongrow.ExperimentConfig(kind, cfg))
		if err != nil {
			return exp, err
		}
		exp.Rows = append(exp.Rows, stats.Row{
			Config:     mc,
			SplitSecs:  res.SplitSimSecs,
			SplitIters: res.SplitIterations,
			MergeSecs:  res.MergeSimSecs,
			MergeIters: res.MergeIterations,
			WallSplit:  res.SplitWallMs / 1e3,
			WallMerge:  res.MergeWallMs / 1e3,
		})
		exp.SquaresAfterSplit = res.SquaresAfterSplit
		exp.FinalRegions = res.FinalRegions
	}
	if native {
		res, err := serverRow(ctx, c, id, regiongrow.NativeParallel, cfg)
		if err != nil {
			return exp, err
		}
		exp.Rows = append(exp.Rows, stats.Row{
			Config:     machine.HostNative,
			SplitIters: res.SplitIterations,
			MergeIters: res.MergeIterations,
			WallSplit:  res.SplitWallMs / 1e3,
			WallMerge:  res.MergeWallMs / 1e3,
		})
	}
	return exp, nil
}

// serverRow runs one (image, engine, config) job to completion remotely.
func serverRow(ctx context.Context, c *client.Client, id regiongrow.PaperImageID, kind regiongrow.EngineKind, cfg regiongrow.Config) (*client.Result, error) {
	sub, err := c.Submit(ctx, client.JobRequest{PaperImage: id.ShortName(), Engine: kind, Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("submitting %v on %v: %w", kind, id, err)
	}
	job, err := c.Wait(ctx, sub.ID)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			// Tell the server to stop a row nobody will read.
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, _ = c.Cancel(cctx, sub.ID)
			return nil, context.DeadlineExceeded
		}
		return nil, fmt.Errorf("waiting for %v on %v: %w", kind, id, err)
	}
	if job.State != client.StateDone {
		return nil, fmt.Errorf("%v on %v: job %s %s: %s", kind, id, job.ID, job.State, job.Error)
	}
	return job.Result, nil
}
