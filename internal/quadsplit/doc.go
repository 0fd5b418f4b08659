// Package quadsplit implements the split stage of the split-and-merge
// region growing algorithm: the bottom-up partition of an image into
// maximal homogeneous square regions.
//
// Every pixel starts as a 1×1 homogeneous square. Pass l combines aligned
// 2×2 groups of solid 2^(l−1)-squares into 2^l-squares when the union's
// pixel range is at most the threshold T, the paper's one homogeneity
// test, which Split takes as a plain int. The stage terminates when the
// whole image is one square, when a pass combines nothing, or when the
// square size cap is reached.
//
// # The output
//
// A Result holds the square list: every square once, in ascending ID
// order, as an 8-byte Square (ID, the linear index of the square's
// north-west pixel; intensity interval; log2 of the side). A square's
// slot is its index in the list, and the Result names squares by slot:
// Edges lists every pair of 4-adjacent squares once, and Top and Bottom
// are the slots over the image's first and last rows, against which a
// neighbouring band or tile stitches (Stitch). The list and the edges are
// what the graph builds read (rag.Graph.AddSquares), and a square's slot
// in the list is its slot in the graph; its intervals are the ones the
// level passes computed, so no later stage rescans a square's pixels. No
// stage writes a per-pixel raster before the final labels, which Paint
// fills square by square.
//
// Every level pass is one branch-free fold: a level is a lo and a hi byte
// plane over the blocks wholly inside the band (level 0 is the raster),
// and one kernel call folds a row pair of a level into a row of the next,
// 8 blocks per uint64: homog.FoldPixelRows at level 1, which reads each
// pixel word once, and homog.FoldBlockRows above it. A block is
// solid exactly when hi − lo ≤ T, which bounds its children's ranges too,
// so no solidity flag is stored. The claim that produces the list and the
// edges walks each row, stopping only at the west columns of squares: a
// square that started above is jumped, and a new square's side is found
// once, by climbing the levels while the parent block is solid, since a
// block lies inside a larger square exactly when its parent is solid. It
// meets the north-west corners in raster order, so the list needs no
// sort, and it records each adjacency once: a north edge when the lower
// square appears, an east–west edge on the first row both squares cover.
//
// # Row bands
//
// No square is larger than the cap, and every square is aligned to its
// own side, so no square crosses a row that is a multiple of the cap.
// Split cuts the image into at most Options.Workers full-width bands,
// each a whole number of cap rows tall, and runs each level pass band by
// band on goroutines. A band holds whole blocks at every level, so its
// pass combines exactly the global pass's blocks inside it, and the
// termination rule, read on the calling goroutine from the summed
// counts, stops every band at the global level. Each band's square count
// is then known (its pixels, less three per solid block), so a prefix
// sum gives each band its first slot, and the bands claim straight into
// the shared list, each into its own part of one edge buffer. Split then
// joins the bands' edges, stitching each band's top row to the bottom
// row of the band above: the result is the same for every band count, up
// to the order of the edges.
//
// # The size cap
//
// In the paper's tables, split iteration counts and split times are
// identical for every image of the same size (4 passes at 128², 5 at 256²)
// even though the images differ wildly in content (193 vs 1732 squares).
// A content-driven termination test cannot produce that; a fixed iteration
// count of log2(N)−3 — i.e. a maximum square of N/8 — reproduces both
// observed counts exactly. We therefore default MaxSquare to N/8 and expose
// it as an option; Options{MaxSquare: Unbounded} runs the textbook
// algorithm to completion.
package quadsplit
