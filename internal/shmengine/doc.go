// Package shmengine implements the native shared-memory parallel engine:
// the paper's split-and-merge region growing run directly on host
// goroutines, with no simulated machine in the loop.
//
// Where dpengine and mpengine optimise for fidelity to the CM-2 and CM-5
// cost models, this engine optimises for host throughput:
//
//   - the split stage partitions the image into cap-aligned tiles and runs
//     the quadtree combine passes per tile (quadsplit.SplitParallel);
//   - the region adjacency graph is built from cap-aligned row bands, one
//     partial graph per band, stitched along band boundaries;
//   - each merge round computes every region's best-neighbour choice on a
//     worker pool sized to GOMAXPROCS, then contracts the mutual pairs.
//
// Determinism is free by construction: every tie-break rag.SlotChoice
// makes is a pure function of (seed, iteration, region id), so the
// parallel schedule cannot change any decision, and the engine produces
// byte-identical segmentations to core.Sequential for every configuration.
// The test suite enforces that property across images, thresholds, tie
// policies, and worker counts.
package shmengine
