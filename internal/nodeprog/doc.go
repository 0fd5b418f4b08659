// Package nodeprog is the paper's message-passing node program, written
// once. internal/mpengine runs it on simulated CM-5 nodes and
// internal/distengine on worker processes; each supplies the machine as a
// Collectives implementation and the partition as a Grid.
//
// The program follows the paper's steps 0–5:
//
//  0. The image is block-mapped onto a grid of tiles, one per node, with
//     boundaries at multiples of the split cap.
//  1. Each node splits its tile independently. No split square crosses a
//     cap-aligned boundary, so the local splits are the global split.
//  2. Each node builds its local graph; boundary strips (labels plus
//     region intervals) exchanged with the grid neighbours add the
//     cross-tile edges.
//  3. Nodes choose for the vertices they own, route each choice to the
//     chosen vertex's owner, and detect mutual pairs.
//  4. Merge events (representative, loser, new interval) are gathered on
//     every node, which relabels its edges; each loser's adjacency is
//     handed to its representative's owner.
//  5. Steps 3–4 repeat while any node still has an active edge.
//
// A region is owned by the node whose tile holds its anchor pixel, and the
// representative (smaller ID) of a merge keeps its owner. Choices use
// rag.PickTied, so labels equal the sequential engine's. Every payload is
// built in ascending ID order, so what a node sends never depends on Go's
// map order or on goroutine scheduling.
package nodeprog
