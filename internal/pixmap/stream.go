package pixmap

import (
	"bufio"
	"fmt"
	"io"
)

// Incremental PGM I/O. StreamReader and StreamWriter are the raster layer
// of the streaming segmentation path: the header is parsed eagerly, pixel
// rows move through caller-owned band buffers, and no full-image
// allocation ever happens — which is what lets gigapixel inputs flow
// through in O(band) memory.

// MaxStreamPixels bounds the pixel count a streamed PGM may declare. The
// limit is not memory (bands are bounded regardless) but label space:
// region IDs are int32 linear pixel indices, so every pixel index must fit
// in an int32. This is 32× MaxPGMPixels — a ~46000×46000 scan streams,
// while ReadPGM would refuse to materialise anything over 64MP.
const MaxStreamPixels = 1 << 31

// StreamReader decodes a PGM (P2 or P5) incrementally: NewStreamReader
// parses and validates the header, then ReadRows yields pixel rows on
// demand into a caller-owned buffer. Accepted streams decode to exactly
// the bytes ReadPGM would produce; the only divergence is the pixel-count
// cap (MaxStreamPixels here versus ReadPGM's MaxPGMPixels), which is the
// point of streaming.
type StreamReader struct {
	br     *bufio.Reader
	w, h   int
	maxval int
	binary bool
	row    int    // next unread row
	tok    []byte // P2 token scratch, reused across ReadRows calls
}

// NewStreamReader parses the PGM header from r and returns a reader
// positioned at the first pixel row.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, w, h, maxval, err := pgmHeader(br)
	if err != nil {
		return nil, err
	}
	if w > 0 && h > MaxStreamPixels/w {
		return nil, fmt.Errorf("pixmap: PGM declares %dx%d pixels, more than the %d-pixel streaming limit", w, h, MaxStreamPixels)
	}
	return &StreamReader{br: br, w: w, h: h, maxval: maxval, binary: magic == "P5"}, nil
}

// Width returns the image width in pixels.
func (sr *StreamReader) Width() int { return sr.w }

// Height returns the image height in rows.
func (sr *StreamReader) Height() int { return sr.h }

// RowsRemaining returns how many rows ReadRows has yet to deliver.
func (sr *StreamReader) RowsRemaining() int { return sr.h - sr.row }

// ReadRows decodes the next n rows into dst, which must hold at least
// n·Width bytes. Asking for more rows than remain is an error; a short or
// malformed underlying stream surfaces exactly as it would from ReadPGM.
func (sr *StreamReader) ReadRows(dst []uint8, n int) error {
	if n < 0 || n > sr.RowsRemaining() {
		return fmt.Errorf("pixmap: ReadRows(%d) with %d rows remaining", n, sr.RowsRemaining())
	}
	need := n * sr.w
	if len(dst) < need {
		return fmt.Errorf("pixmap: ReadRows buffer holds %d bytes, need %d", len(dst), need)
	}
	dst = dst[:need]
	if sr.binary {
		if _, err := io.ReadFull(sr.br, dst); err != nil {
			return fmt.Errorf("pixmap: reading P5 pixels: %w", err)
		}
	} else {
		var err error
		if sr.tok, err = readP2Raster(sr.br, dst, sr.maxval, sr.row*sr.w, sr.tok); err != nil {
			return err
		}
	}
	sr.row += n
	return nil
}

// StreamWriter encodes a binary PGM (P5) incrementally: the header goes
// out at construction, WriteRows appends pixel rows, and Close verifies
// the declared geometry was fully written. The bytes produced are
// identical to WritePGM on the assembled image.
type StreamWriter struct {
	bw   *bufio.Writer
	w, h int
	row  int // rows written so far
}

// NewStreamWriter writes the P5 header for a w×h image and returns a
// writer accepting its pixel rows.
func NewStreamWriter(out io.Writer, w, h int) (*StreamWriter, error) {
	if w < 0 || h < 0 {
		return nil, fmt.Errorf("pixmap: bad stream geometry %dx%d", w, h)
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", w, h); err != nil {
		return nil, fmt.Errorf("pixmap: writing PGM header: %w", err)
	}
	return &StreamWriter{bw: bw, w: w, h: h}, nil
}

// WriteRows appends whole pixel rows: len(pix) must be a multiple of the
// width, and the total must not exceed the declared height.
func (sw *StreamWriter) WriteRows(pix []uint8) error {
	if sw.w == 0 {
		if len(pix) != 0 {
			return fmt.Errorf("pixmap: writing %d pixels to a zero-width stream", len(pix))
		}
		return nil
	}
	if len(pix)%sw.w != 0 {
		return fmt.Errorf("pixmap: writing %d pixels, not a multiple of width %d", len(pix), sw.w)
	}
	rows := len(pix) / sw.w
	if sw.row+rows > sw.h {
		return fmt.Errorf("pixmap: writing %d rows past the declared height %d", sw.row+rows-sw.h, sw.h)
	}
	if _, err := sw.bw.Write(pix); err != nil {
		return fmt.Errorf("pixmap: writing PGM pixels: %w", err)
	}
	sw.row += rows
	return nil
}

// Close flushes the stream and fails if fewer rows than declared were
// written — a truncated result must never look like a success.
func (sw *StreamWriter) Close() error {
	if sw.row != sw.h {
		return fmt.Errorf("pixmap: stream closed after %d of %d rows", sw.row, sw.h)
	}
	if err := sw.bw.Flush(); err != nil {
		return fmt.Errorf("pixmap: flushing PGM stream: %w", err)
	}
	return nil
}
