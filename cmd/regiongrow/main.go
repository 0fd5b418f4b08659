// Command regiongrow segments a PGM image by parallel split-and-merge
// region growing and writes the result as a recoloured PGM plus a region
// summary.
//
// Usage:
//
//	regiongrow [-engine E] [-threshold T] [-tie P] [-seed S]
//	           [-maxsquare M] [-timeout D] [-server URL]
//	           [-cluster host:port,...] [-stream] [-o out.pgm]
//	           [-labels out.rgls] [-dot out.dot] [-json out.json] input.pgm
//
// Engines: sequential (default), cm2-8k, cm2-16k, cm5-cmf, cm5-lp,
// cm5-async, native, dist. The CM engines additionally report simulated
// machine times; native runs the split and graph build on host
// goroutines (GOMAXPROCS workers); dist coordinates real
// regiongrow-worker processes over TCP (-cluster lists their addresses
// and implies -engine dist when no engine is named). With -timeout, a
// run exceeding the duration is cancelled (within one split/merge
// iteration) and the command exits non-zero naming the stage it reached.
//
// With -stream, the image is segmented incrementally in O(band + squares)
// memory — the full raster never exists in the process, but the region
// graph keeps a vertex per split square, one per pixel on noise-like
// input — accepting inputs far beyond the in-memory engines' pixel limit
// while producing output byte-identical to the sequential engine. Stream
// mode writes the outputs named by -o (recoloured PGM) and -labels (raw
// label raster); it is local-only and raster-only, so -server, -cluster,
// -dot, and -json do not combine with it. -labels also works without
// -stream, encoding the in-memory result in the same wire format for
// byte-for-byte comparison.
//
// With -server, the image is not segmented locally: it is uploaded to a
// regiongrowd service at the given base URL through the regiongrow/client
// SDK — submitted as an asynchronous job whose stage events stream back
// over SSE — and the outputs are produced from the job's result. A
// -timeout in server mode also cancels the remote job.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"regiongrow"
	"regiongrow/client"
)

// stageTracker remembers the latest stage event so a timeout message can
// say how far the run got. It serves both the local observer hook and the
// client SDK's streamed events — they are the same typed StageEvent.
type stageTracker struct {
	stage atomic.Value // string
	iter  atomic.Int64
}

func (t *stageTracker) Observe(ev regiongrow.StageEvent) {
	switch ev.Kind {
	case regiongrow.EventSplitStart:
		t.stage.Store("split")
	case regiongrow.EventSplitDone:
		t.stage.Store("graph build")
	case regiongrow.EventGraphDone:
		t.stage.Store("merge")
	case regiongrow.EventMergeIteration:
		t.iter.Store(int64(ev.Iteration))
	case regiongrow.EventMergeDone:
		t.stage.Store("finalize")
	}
}

func (t *stageTracker) String() string {
	s, _ := t.stage.Load().(string)
	if s == "" {
		s = "startup"
	}
	if s == "merge" {
		if k := t.iter.Load(); k > 0 {
			return fmt.Sprintf("merge iteration %d", k)
		}
	}
	return s
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("regiongrow: ")
	engineName := flag.String("engine", "",
		"execution engine (default sequential): "+regiongrow.Enumerate(regiongrow.AllEngineKinds()))
	threshold := flag.Int("threshold", 10, "pixel-range homogeneity threshold T")
	tieName := flag.String("tie", "random", "tie policy: "+regiongrow.Enumerate(regiongrow.AllTiePolicies()))
	seed := flag.Uint64("seed", 1, "random tie seed")
	maxSquare := flag.Int("maxsquare", 0, "split square cap (0 = N/8 as in the paper, -1 = unbounded)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	serverURL := flag.String("server", "", "segment via a regiongrowd service at this base URL instead of a local engine")
	cluster := flag.String("cluster", "", "comma-separated regiongrow-worker addresses for the dist engine (implies -engine dist)")
	streamMode := flag.Bool("stream", false, "segment incrementally in bounded memory (output byte-identical to sequential; needs -o and/or -labels)")
	bandRows := flag.Int("bandrows", 0, "stream mode band height in rows, limited to the image height (0 = one split cap per band, the minimum-memory setting)")
	out := flag.String("o", "", "write recoloured segmentation to this PGM path")
	labelsPath := flag.String("labels", "", "write the raw label raster (RGLS wire format) to this path")
	dotPath := flag.String("dot", "", "write the final region adjacency graph as Graphviz DOT")
	jsonPath := flag.String("json", "", "write per-region statistics as JSON")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: regiongrow [-engine E] [-threshold T] [-tie P] [-seed S]")
		fmt.Fprintln(os.Stderr, "                  [-maxsquare M] [-timeout D] [-server URL]")
		fmt.Fprintln(os.Stderr, "                  [-cluster host:port,...] [-stream] [-o out.pgm]")
		fmt.Fprintln(os.Stderr, "                  [-labels out.rgls] [-dot out.dot] [-json out.json] input.pgm")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var clusterAddrs []string
	if *cluster != "" {
		for _, a := range strings.Split(*cluster, ",") {
			if a = strings.TrimSpace(a); a != "" {
				clusterAddrs = append(clusterAddrs, a)
			}
		}
	}
	name := *engineName
	if name == "" {
		name = "sequential"
		if len(clusterAddrs) > 0 {
			name = "dist"
		}
	}
	kind, err := regiongrow.ParseEngineKind(name)
	if err != nil {
		log.Fatal(err)
	}
	if kind == regiongrow.Distributed && len(clusterAddrs) == 0 && *serverURL == "" {
		log.Fatal("engine dist needs -cluster host:port,... (regiongrow-worker addresses)")
	}
	tie, err := regiongrow.ParseTiePolicy(*tieName)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := regiongrow.Config{Threshold: *threshold, Tie: tie, Seed: *seed, MaxSquare: *maxSquare}

	if *streamMode {
		if *serverURL != "" || len(clusterAddrs) > 0 || *dotPath != "" || *jsonPath != "" {
			log.Fatal("-stream is local-only and raster-only: it does not combine with -server, -cluster, -dot, or -json")
		}
		if *engineName != "" && *engineName != "sequential" {
			log.Fatalf("-stream runs the streaming engine (sequential-identical output), not -engine %s", *engineName)
		}
		if *out == "" && *labelsPath == "" {
			log.Fatal("-stream needs at least one of -o out.pgm or -labels out.rgls")
		}
		runStream(ctx, flag.Arg(0), cfg, *bandRows, *timeout, *out, *labelsPath)
		return
	}

	im, err := regiongrow.LoadPGM(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	if *serverURL != "" {
		if *labelsPath != "" {
			log.Fatal("-labels is local-only: job results carry region stats, not the raw label raster")
		}
		runServer(ctx, *serverURL, kind, cfg, im, *timeout, *out, *dotPath, *jsonPath)
		return
	}

	tracker := &stageTracker{}
	sessOpts := []regiongrow.Option{regiongrow.WithObserver(tracker)}
	if kind == regiongrow.Distributed {
		sessOpts = append(sessOpts, regiongrow.WithClusterWorkers(clusterAddrs))
	}
	seg2, err := regiongrow.New(kind, sessOpts...)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := seg2.Segment(ctx, im, cfg)
	if errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("timed out after %v during %s — raise -timeout or pick a faster engine", *timeout, tracker)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := regiongrow.Validate(seg, im, cfg); err != nil {
		log.Fatalf("internal error: invalid segmentation: %v", err)
	}

	fmt.Printf("engine: %s   image: %dx%d   T=%d   tie=%v\n", seg2.Engine().Name(), im.W, im.H, *threshold, tie)
	fmt.Printf("split: %d iterations, %d square regions (%.1f ms wall)\n",
		seg.SplitIterations, seg.SquaresAfterSplit, seg.SplitWall.Seconds()*1e3)
	fmt.Printf("merge: %d iterations, %d final regions (%.1f ms wall)\n",
		seg.MergeIterations, seg.FinalRegions, seg.MergeWall.Seconds()*1e3)
	if seg.SplitSim > 0 || seg.MergeSim > 0 {
		fmt.Printf("simulated machine time: split %.3f s, merge %.3f s\n", seg.SplitSim, seg.MergeSim)
	}

	regions := append([]regiongrow.Segmentation{}, *seg)[0].Regions
	sort.Slice(regions, func(i, j int) bool { return regions[i].Area > regions[j].Area })
	show := len(regions)
	if show > 12 {
		show = 12
	}
	fmt.Printf("largest %d regions:\n", show)
	for _, r := range regions[:show] {
		x, y := im.Coord(int(r.ID))
		fmt.Printf("  region %7d at (%3d,%3d)  area %7d  intensity %v\n", r.ID, x, y, r.Area, r.IV)
	}

	if *out != "" {
		if err := regiongrow.SavePGM(*out, regiongrow.Recolour(seg, im)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *labelsPath != "" {
		if err := writeFile(*labelsPath, func(f *os.File) error {
			return regiongrow.EncodeLabels(f, seg)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *labelsPath)
	}
	if *dotPath != "" || *jsonPath != "" {
		writeRegionFiles(regiongrow.ComputeRegionStats(seg, im), *dotPath, *jsonPath)
	}
}

// runStream is the -stream mode: segment the input incrementally through
// the streaming engine. Each requested output format is its own pass over
// the input file — the raster is never resident either way, and a second
// pass costs far less than holding a gigapixel image would.
func runStream(ctx context.Context, input string, cfg regiongrow.Config, bandRows int, timeout time.Duration, out, labelsPath string) {
	type pass struct {
		path   string
		output regiongrow.StreamOutput
	}
	var passes []pass
	if out != "" {
		passes = append(passes, pass{out, regiongrow.StreamRecolour})
	}
	if labelsPath != "" {
		passes = append(passes, pass{labelsPath, regiongrow.StreamLabels})
	}
	for i, p := range passes {
		tracker := &stageTracker{}
		res, err := streamOnce(ctx, input, p.path, p.output, cfg, bandRows, tracker)
		if errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("timed out after %v during %s — raise -timeout or pick a faster band size", timeout, tracker)
		}
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("engine: stream   image: %dx%d   T=%d   tie=%v\n", res.W, res.H, cfg.Threshold, cfg.Tie)
			fmt.Printf("split: %d iterations, %d square regions, %d bands (%.1f ms wall)\n",
				res.SplitIterations, res.SquaresAfterSplit, res.Bands, res.SplitWall.Seconds()*1e3)
			fmt.Printf("merge: %d iterations, %d final regions (%.1f ms wall)\n",
				res.MergeIterations, res.FinalRegions, res.MergeWall.Seconds()*1e3)
		}
		fmt.Printf("wrote %s\n", p.path)
	}
}

// streamOnce runs one streaming pass from the input file to one output
// file, removing a partial output on failure.
func streamOnce(ctx context.Context, input, outPath string, output regiongrow.StreamOutput, cfg regiongrow.Config, bandRows int, tracker *stageTracker) (*regiongrow.StreamResult, error) {
	in, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	f, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	res, err := regiongrow.SegmentStream(ctx, in, f, cfg,
		regiongrow.WithStreamOutput(output),
		regiongrow.WithStreamBandRows(bandRows),
		regiongrow.WithStreamObserver(tracker))
	if err != nil {
		f.Close()
		os.Remove(outPath)
		return nil, err
	}
	return res, f.Close()
}

// runServer is the -server mode: submit the image as an asynchronous job,
// follow its stage events over SSE, and produce the same outputs from the
// job's result. The recoloured PGM for -o is rendered by the server (a
// cache hit, since the job just computed the same key).
func runServer(ctx context.Context, baseURL string, kind regiongrow.EngineKind, cfg regiongrow.Config, im *regiongrow.Image, timeout time.Duration, out, dotPath, jsonPath string) {
	c, err := client.New(baseURL)
	if err != nil {
		log.Fatal(err)
	}
	req := client.JobRequest{Image: im, Engine: kind, Config: cfg}
	sub, err := c.Submit(ctx, req)
	if err != nil {
		log.Fatalf("submitting to %s: %v", baseURL, err)
	}
	tracker := &stageTracker{}
	job, err := c.Stream(ctx, sub.ID, tracker.Observe)
	if errors.Is(err, context.DeadlineExceeded) {
		// Cancel the remote job too: the deadline was ours, not the
		// server's, and nobody is coming back for the result.
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _ = c.Cancel(cctx, sub.ID)
		log.Fatalf("timed out after %v during %s — raise -timeout or pick a faster engine", timeout, tracker)
	}
	if err != nil {
		log.Fatal(err)
	}
	if job.State != client.StateDone {
		log.Fatalf("job %s %s: %s", job.ID, job.State, job.Error)
	}
	res := job.Result

	fmt.Printf("engine: %s   image: %dx%d   T=%d   tie=%v   (served by %s, job %s)\n",
		job.Engine, im.W, im.H, cfg.Threshold, cfg.Tie, baseURL, job.ID)
	fmt.Printf("split: %d iterations, %d square regions (%.1f ms wall)\n",
		res.SplitIterations, res.SquaresAfterSplit, res.SplitWallMs)
	fmt.Printf("merge: %d iterations, %d final regions (%.1f ms wall)\n",
		res.MergeIterations, res.FinalRegions, res.MergeWallMs)
	if res.SplitSimSecs > 0 || res.MergeSimSecs > 0 {
		fmt.Printf("simulated machine time: split %.3f s, merge %.3f s\n", res.SplitSimSecs, res.MergeSimSecs)
	}

	regions := append([]regiongrow.RegionStat{}, res.Regions...)
	sort.Slice(regions, func(i, j int) bool { return regions[i].Area > regions[j].Area })
	show := len(regions)
	if show > 12 {
		show = 12
	}
	fmt.Printf("largest %d regions:\n", show)
	for _, r := range regions[:show] {
		x, y := im.Coord(int(r.ID))
		fmt.Printf("  region %7d at (%3d,%3d)  area %7d  intensity %v\n", r.ID, x, y, r.Area, r.IV())
	}

	if out != "" {
		rec, err := c.Recoloured(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		if err := regiongrow.SavePGM(out, rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
	if dotPath != "" || jsonPath != "" {
		writeRegionFiles(res.Regions, dotPath, jsonPath)
	}
}

// writeRegionFiles emits the optional DOT and JSON region outputs.
func writeRegionFiles(stats []regiongrow.RegionStat, dotPath, jsonPath string) {
	if dotPath != "" {
		if err := writeFile(dotPath, func(f *os.File) error {
			return regiongrow.WriteRegionDOT(f, stats)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", dotPath)
	}
	if jsonPath != "" {
		if err := writeFile(jsonPath, func(f *os.File) error {
			return regiongrow.WriteRegionJSON(f, stats)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// writeFile creates path, runs fn on it, and closes it, reporting the
// first error.
func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
