// Package nodeprog is the paper's message-passing node program, written
// once. internal/mpengine runs it on simulated CM-5 nodes and
// internal/distengine on worker processes; each supplies the machine as a
// Collectives implementation and the partition as a Grid. The program
// owns its round loop (a rag.Drive callback), its Result and the
// assembly of the nodes' results into one segmentation (Assemble), so
// the engines are machine adapters.
//
// The program follows the paper's steps 0–5:
//
//  0. The image is block-mapped onto a grid of tiles, one per node, with
//     boundaries at multiples of the split cap.
//  1. Each node splits its tile independently. No split square crosses a
//     cap-aligned boundary, so the local splits are the global split.
//  2. Each node builds its local graph on a rag arena from its split's
//     squares and edges: the vertices it owns take the first slots, in
//     ascending ID order, so the split's list slots are owned slots.
//     Boundary strips (the border vertices' region IDs and intervals,
//     north and south from the split's top and bottom slot rows, east and
//     west from the squares on those columns) exchanged with the grid
//     neighbours add the cross-tile edges and, after the owned slots,
//     ghosts: the neighbours other nodes own.
//  3. Nodes choose for the vertices they own, route each remote choice to
//     the chosen vertex's owner, and detect mutual pairs.
//  4. Merge events (representative, loser, new interval) are gathered on
//     every node. Each owned loser's adjacency is handed to its
//     representative's owner, and every loser a node knows is contracted
//     into its representative, which becomes a ghost if it was unknown.
//  5. Steps 3–4 repeat while any node still has an active edge: each
//     repetition is one round of rag.Drive, whose head reduction
//     decides for every node at once. The reduction rides the round's
//     suitor exchange (Collectives.ExchangeMax), so a round makes three
//     collectives: that one, the merge-event gather and the handover
//     exchange.
//
// The write-back then paints every square a node owns with its final
// region's ID into a fresh tile raster: the node keeps its squares, not a
// label raster, through the merge. It reads the final region off the rag
// arena's contraction record (Graph.RootSlot), as the host engines and
// stream do, though the arena holds only the regions the node has seen.
// That suffices by one invariant: after every round, the region that
// holds an owned square is live on that square's node. It starts as the
// square itself; when it loses a merge the node knows the loser, so it
// contracts it into the representative, first making that a ghost if the
// node did not hold it.
//
// A region is owned by the node whose tile holds its anchor pixel, and the
// representative (smaller ID) of a merge keeps its owner. Messages name
// regions by ID, so each node keeps an ID → slot map of the vertices it
// has held; the rag arena itself is slot-only. An owned
// vertex's neighbour list is exact, and the cost model charges per entry
// of such lists only. Choices use rag's choice kernel, so labels equal the
// sequential engine's. Every payload is built in ascending ID order, so
// what a node sends never depends on Go's map order or on goroutine
// scheduling. A collective result no correct peer could produce is an
// error, never a panic.
package nodeprog
