// Package core defines the segmentation data model shared by all engines
// and provides the host engines of the split-and-merge region growing
// algorithm: the sequential reference, Native, and the serial baseline,
// all three one pipeline.
//
// An Engine consumes an image and a Config and produces a Segmentation:
// final per-pixel labels plus the statistics the paper reports (split
// iterations, merge iterations, stage timings). The sequential engine here
// fixes the semantics. Native runs the same pipeline with its split and
// graph build on several goroutines; the data-parallel engine
// (internal/dpengine), the message-passing engine (internal/mpengine), the
// distributed engine (internal/distengine) and the bounded-memory stream
// (internal/stream) must all produce identical segmentations under every
// tie policy.
package core
