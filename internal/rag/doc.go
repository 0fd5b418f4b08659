// Package rag implements the region adjacency graph (RAG) and the mutual
// best-neighbour merge kernel at the heart of the merge stage.
//
// The region growing problem is reformulated as a weighted undirected graph
// problem: vertices are regions, an edge joins two regions sharing a
// boundary, and the weight of edge (v,w) is the pixel range of the union of
// the two regions' intensity intervals. Only edges whose weight is at most
// the threshold T are active: the paper's one homogeneity test, which
// NewGraph takes as a plain int. Each iteration every region picks
// its best active neighbour (minimum weight, ties broken by policy); two
// regions merge exactly when they pick each other; the smaller ID becomes
// the representative.
//
// A Graph names its vertices by slot, a dense index into its arena, and
// has no lookup by region ID. A split names its squares and edges by list
// slot, so a graph built from the split's squares and edges
// (Graph.AddSquares) needs none: a list slot offset by the slots held
// before the build is a graph slot. Relabel resolves each square through
// the arena's contraction record and paints its final region's ID over
// its pixels: the final labels are the only per-pixel raster the host
// pipeline writes.
//
// The kernel here defines the *semantics* every engine (the host
// pipeline, data parallel, message passing, distributed) must agree on.
// Choices are pure functions of (graph state, policy, seed, iteration),
// so engines that evaluate them with different parallel schedules still
// produce identical segmentations. Every engine's merge stage runs on
// Drive, the one round loop: it numbers the rounds, counts the stalls
// and forces the SmallestID rounds, and an engine supplies only the
// round itself.
package rag
