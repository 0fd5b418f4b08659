// Package stream segments images of effectively unbounded size in
// O(band + squares) memory: the sixth engine path, running the distributed
// engine's banded decomposition over one input stream instead of over
// sockets.
//
// The image streams in as horizontal bands whose boundaries are multiples
// of the effective split cap. Cap alignment means no split square crosses
// a band boundary, so splitting each band independently reproduces
// exactly the global split (the same argument distengine's workers rely
// on). Each band's square list joins one global region adjacency graph —
// the intra-band edges the split lists, and inter-band edges stitched
// between the band's top slot row and the retained previous-band bottom
// row (quadsplit.Stitch) — and each square's side is kept as one byte
// before the band's pixels are retired. No label raster is written: only
// the live frontier strip, the RAG (one vertex per square, not per
// pixel), and those side bytes survive a band. So memory grows with the
// square count, which no band bounds: on noise-like input the split
// leaves one square per pixel, and pixmap.Random images of 0.26–4 MP at
// T = 10 held 79–86 B of live heap per pixel.
//
// The merge stage then runs the exact sequential kernel — Graph.MergeAll
// over the fully assembled graph — so
// iteration numbering, stall-forced resolutions, and Random-tie draws are
// identical to the in-memory engines, making the emitted labels
// byte-identical to theirs. A second pass walks the graph's slots band by
// band — slot k is square k, placed from the squares' sides alone, since
// the merge may leave a smaller ID in a hub's slot — resolves each
// square's final region, paints it (quadsplit.Paint), and emits the
// output through the streaming writer.
package stream
