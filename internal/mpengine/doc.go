// Package mpengine runs the paper's message-passing (F77 + CMMD)
// split-and-merge program, internal/nodeprog, on the mpvm cluster.
//
// The image is block-mapped onto a P1×P2 node grid whose tile sides are
// multiples of the square-size cap. Each node runs the program through an
// adapter over its mpvm.Node: the irregular exchanges run under either the
// Linear Permutation or the Async scheme — the comparison at the heart of
// the paper's CM-5 results — boundary strips travel point to point to the
// four grid neighbours, and the cost hooks charge node compute, the
// profile's fixed costs, and the stage barriers whose clock samples become
// SplitSim and MergeSim. The merge loop's head reduction doubles as the
// cancellation rendezvous, so all nodes abort together.
//
// Simulated times and communication counters are deterministic;
// testdata/simulated.golden pins them for both schemes on the paper's six
// images. Labels equal the sequential engine's for every policy and seed.
package mpengine
