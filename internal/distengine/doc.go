// Package distengine runs the paper's region-growing algorithm as a real
// network-distributed system: N worker processes each own a horizontal
// band of the image and run the message-passing node program
// (internal/nodeprog, which internal/mpengine runs on simulated nodes) on
// it, with the program's collectives carried as frames to a coordinator
// hub and its cost-model hooks left empty.
//
// The wire protocol is a small set of length-prefixed binary frames
// (stdlib only), version 3: a job frame carrying geometry, config, and
// the worker's band of pixels; lockstep collective request/response pairs
// (all-reduce, all-gather, irregular exchange, and exchange-max, a merge
// round's head all-reduce fused with its suitor exchange, so a round
// costs three hub round trips); fire-and-forget stage events from rank
// 0, each a core.StageEvent; a terminal result frame, the worker's
// nodeprog.Result with the band's final labels, which the coordinator
// assembles with nodeprog.Assemble; and an abort frame the coordinator
// injects on context cancellation, which every worker observes at its
// next collective — within one split/merge iteration. The frame types
// and payload layouts are in protocol.go.
//
// The coordinator side (Engine) implements core.Engine, so it
// plugs into the regiongrow.Segmenter facade as the Distributed kind; the
// worker side (ServeWorker) is wrapped by cmd/regiongrow-worker. Labels
// are byte-identical to the sequential engine for every Config: band
// boundaries are aligned to the effective split cap, so no split square
// crosses one, and every merge decision rule is shared through
// internal/rag.
package distengine
