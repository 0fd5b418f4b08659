// Package dpengine implements the paper's data-parallel (CM Fortran)
// split-and-merge program on the simdvm virtual machine.
//
// The structure follows the paper's five data-parallel steps exactly:
//
//  1. The 2-D pixel image is repeatedly split into homogeneous square
//     regions, combining quad-blocks with strided NEWS shifts.
//  2. A graph vertex is created per square region and an edge per
//     neighbouring pair; vertices and edges live in 1-D parallel arrays;
//     edges violating the homogeneity criterion are (and stay) inactive.
//  3. Every region determines its best mergeable neighbour with a
//     segmented min-scan over the edge array; ties break by policy;
//     mutual choices merge.
//  4. The surviving region (the smaller ID) absorbs the other's interval;
//     edge endpoints are relabelled through the router; self-loops and
//     parallel edges are removed with a sort/dedupe/pack round.
//  5. Steps 3–4 repeat while any active edge remains.
//
// All randomness is the hash-based tie draw of rag's choice kernel, so
// the engine's segmentations are identical to the sequential engine's for
// every tie policy and seed — a property the test suite enforces.
package dpengine
