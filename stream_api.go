package regiongrow

import (
	"context"
	"fmt"
	"io"

	"regiongrow/internal/core"
	"regiongrow/internal/stream"
)

// StreamResult reports what a streaming segmentation did; see
// stream.Result. It carries the run's statistics but no per-pixel label
// array — on the streaming path the full raster never exists in memory.
type StreamResult = stream.Result

// StreamOutput selects what SegmentStream emits.
type StreamOutput = stream.Output

// The streaming output formats. StreamRecolour emits a binary PGM
// byte-identical to WritePGM(Recolour(seg, im)) on the sequential engine's
// segmentation; StreamLabels emits the raw label raster in EncodeLabels
// form, byte-identical to encoding the sequential engine's Labels.
const (
	StreamRecolour = stream.OutputRecolour
	StreamLabels   = stream.OutputLabels
)

// streamSettings collects the resolved StreamOption state.
type streamSettings struct {
	opt stream.Options
	obs Observer
}

// StreamOption configures one SegmentStream call.
type StreamOption func(*streamSettings) error

// WithStreamBandRows requests a band height in rows. The driver rounds it
// down to a multiple of the effective split cap and raises it to at least
// one cap — the alignment that keeps band-local splits equal to the global
// split — then limits it to the image height, so a request past the image
// gives one band covering it. 0 (the default) selects one cap per band,
// the minimum-memory configuration.
func WithStreamBandRows(n int) StreamOption {
	return func(s *streamSettings) error {
		if n < 0 {
			return fmt.Errorf("regiongrow: negative stream band rows %d", n)
		}
		s.opt.BandRows = n
		return nil
	}
}

// WithStreamSpoolDir has no effect: SegmentStream creates no file, so
// dir is ignored.
//
// Deprecated: the streaming engine no longer spools squares to a temp
// file; drop the option.
func WithStreamSpoolDir(dir string) StreamOption {
	return func(*streamSettings) error { return nil }
}

// WithStreamOutput selects the emitted format (default StreamRecolour).
func WithStreamOutput(o StreamOutput) StreamOption {
	return func(s *streamSettings) error {
		if o != StreamRecolour && o != StreamLabels {
			return fmt.Errorf("regiongrow: unknown stream output %d", int(o))
		}
		s.opt.Output = o
		return nil
	}
}

// WithStreamObserver streams the run's typed stage events to o — the same
// Observer contract every Segmenter honours.
func WithStreamObserver(o Observer) StreamOption {
	return func(s *streamSettings) error {
		s.obs = o
		return nil
	}
}

// SegmentStream segments a PGM streamed from r and writes the result to w,
// holding only one pixel band, the band-boundary frontier, and the region
// graph in memory — never the full raster. It accepts images far beyond
// ReadPGM's materialisation limit (any geometry whose pixel indices fit in
// an int32) and produces output byte-identical to running the sequential
// engine on the same image with the same cfg.
//
// The standard engine contract applies: a cfg that fails Config.Check is
// refused with that error before r is read, cancelling ctx aborts the run
// within one band or merge iteration and returns ctx.Err(), and a
// WithStreamObserver hook receives the usual stage events.
func SegmentStream(ctx context.Context, r io.Reader, w io.Writer, cfg Config, opts ...StreamOption) (*StreamResult, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	var s streamSettings
	//vet:noctx option setters are O(1) field validation; stream.Segment carries the cancellation
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	return stream.Segment(ctx, r, w, cfg, core.Run{Observer: s.obs}, s.opt)
}

// EncodeLabels writes a segmentation's label raster in the StreamLabels
// wire format ("RGLS\n<w> <h>\n" then W·H little-endian int32 region IDs in
// raster order) — the encoding that lets an in-memory engine's result be
// compared byte-for-byte against a streamed StreamLabels run.
func EncodeLabels(w io.Writer, seg *Segmentation) error {
	return stream.EncodeLabels(w, seg.W, seg.H, seg.Labels)
}
