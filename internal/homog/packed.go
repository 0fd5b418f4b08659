package homog

import (
	"encoding/binary"
	"math/bits"
)

// MaxIntensity is the largest representable pixel intensity. The Empty
// sentinel ({MaxIntensity, 0}) and the packed word path below both derive
// from it, so the scalar and SWAR code cannot drift apart.
const MaxIntensity = 255

// The packed path processes 8 pixels per uint64 with SWAR byte-wise
// min/max (the multi-spin-coding idiom: many small lanes in one integer
// word, no branches, independent chains so dual integer pipes stay full).
// Two words are compared byte by byte in place (geBytes). Across a
// block's two columns, and for the threshold test, the bytes are split
// into even and odd 16-bit lanes; each lane holds one value in [0, 255],
// so per-lane arithmetic cannot carry across lanes.
const (
	byteHigh uint64 = 0x8080808080808080 // bit 7 of each byte
	laneMask uint64 = 0x00FF00FF00FF00FF // low byte of each 16-bit lane
	laneBias uint64 = 0x0100010001000100 // bit 8 of each lane
	laneOne  uint64 = 0x0001000100010001 // 1 in each lane
)

// geBytes returns, per byte, 0xFF where x >= y and 0 elsewhere. Each byte
// of (x|H) − (y&^H), H = byteHigh, is at least 1, so none borrows from
// its neighbour, and its bit 7 is set where x's low 7 bits are at least
// y's. Where the two top bits differ, x's decides; where they agree, that
// bit does. The resulting bit 7, shifted up one less itself shifted down
// to bit 0, fills its byte with 0xFF.
func geBytes(x, y uint64) uint64 {
	d := (x | byteHigh) - (y &^ byteHigh)
	ge := (x&^y | d&^(x^y)) & byteHigh
	return ge<<1 - ge>>7
}

// MinBytes returns the byte-wise minimum of two packed 8-pixel words.
func MinBytes(a, b uint64) uint64 { return a ^ (a^b)&geBytes(a, b) }

// MaxBytes returns the byte-wise maximum of two packed 8-pixel words.
func MaxBytes(a, b uint64) uint64 { return b ^ (a^b)&geBytes(a, b) }

// laneGE returns, per 16-bit lane, 0x00FF where x >= y and 0 elsewhere.
// Lanes hold byte values, so (x|bias)-y stays within its lane and bit 8 of
// the per-lane difference is set exactly when x >= y.
func laneGE(x, y uint64) uint64 {
	return (((x | laneBias) - y) >> 8 & laneOne) * 0xFF
}

// foldLo folds the column pairs of a word of lower bounds, 8 columns in
// row order, to the 4 blocks' lower bounds in its low 4 bytes: a block's
// two columns sit in an even and an odd lane.
func foldLo(w uint64) uint64 {
	e, o := w&laneMask, w>>8&laneMask
	m := laneGE(e, o)
	return packLanes(o&m | e&^m)
}

// foldHi is foldLo for upper bounds.
func foldHi(w uint64) uint64 {
	e, o := w&laneMask, w>>8&laneMask
	m := laneGE(e, o)
	return packLanes(e&m | o&^m)
}

// packLanes moves the low bytes of x's four 16-bit lanes into its low four
// bytes, in order.
func packLanes(x uint64) uint64 {
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & 0xFFFFFFFF
}

// laneLimit returns T+1 in each 16-bit lane, with T clamped to
// [-1, MaxIntensity].
func laneLimit(threshold int) uint64 {
	return uint64(min(max(threshold, -1), MaxIntensity)+1) * laneOne
}

// failing returns one set bit for each of 8 blocks whose range exceeds T,
// given their bounds lo and hi and T's laneLimit. Every block's hi is at
// least its lo, so no byte of hi − lo borrows, and bit 8 of each lane of
// (d|bias) − (T+1) is set where d > T: T < 0 passes no block, T ≥ 255
// every block.
func failing(lo, hi, limit uint64) uint64 {
	d := hi - lo
	return ((d&laneMask|laneBias)-limit)&laneBias | ((d>>8&laneMask|laneBias)-limit)&laneBias>>1
}

// FoldPixelRows folds two pixel rows, a over b, into blocks of side 2:
// block i covers pixels 2i and 2i+1 of both rows. It folds the first
// len(lo) rounded down to a multiple of 8 blocks, 8 per word, writing
// each block's least pixel into lo and its greatest into hi, and returns
// how many of them have a range of at most threshold, and how many it
// folded. a and b hold at least 2·len(lo) pixels, hi at least len(lo)
// bytes. Each pixel word is loaded once: one compare of a word of a with
// the word of b under it gives both the minimum and the maximum of every
// vertical pair.
func FoldPixelRows(a, b, lo, hi []uint8, threshold int) (solid, done int) {
	le, limit := binary.LittleEndian, laneLimit(threshold)
	done = len(lo) &^ 7
	fails := 0
	a, b, lo, hi = a[:2*done], b[:2*done], lo[:done], hi[:done]
	for ; len(lo) >= 8; a, b, lo, hi = a[16:], b[16:], lo[8:], hi[8:] {
		_, _, _ = a[15], b[15], hi[7]
		a0, a1 := le.Uint64(a), le.Uint64(a[8:])
		b0, b1 := le.Uint64(b), le.Uint64(b[8:])
		t0, t1 := (a0^b0)&geBytes(a0, b0), (a1^b1)&geBytes(a1, b1)
		l := foldLo(a0^t0) | foldLo(a1^t1)<<32
		h := foldHi(b0^t0) | foldHi(b1^t1)<<32
		le.PutUint64(lo, l)
		le.PutUint64(hi, h)
		fails += bits.OnesCount64(failing(l, h, limit))
	}
	return done - fails, done
}

// FoldBlockRows folds two rows of blocks, A over B, into the blocks of
// the level above, as FoldPixelRows does pixels: block i covers blocks
// 2i and 2i+1 of both rows. loA and loB hold the rows' lower bounds, and
// hiA and hiB their upper bounds, at least 2·len(lo) bytes each. It takes
// the minimum down the lo rows and the maximum down the hi rows.
func FoldBlockRows(loA, loB, hiA, hiB, lo, hi []uint8, threshold int) (solid, done int) {
	le, limit := binary.LittleEndian, laneLimit(threshold)
	done = len(lo) &^ 7
	fails := 0
	loA, loB, hiA, hiB, lo, hi = loA[:2*done], loB[:2*done], hiA[:2*done], hiB[:2*done], lo[:done], hi[:done]
	for ; len(lo) >= 8; loA, loB, hiA, hiB, lo, hi = loA[16:], loB[16:], hiA[16:], hiB[16:], lo[8:], hi[8:] {
		_, _, _, _, _ = loA[15], loB[15], hiA[15], hiB[15], hi[7]
		l := foldLo(MinBytes(le.Uint64(loA), le.Uint64(loB))) | foldLo(MinBytes(le.Uint64(loA[8:]), le.Uint64(loB[8:])))<<32
		h := foldHi(MaxBytes(le.Uint64(hiA), le.Uint64(hiB))) | foldHi(MaxBytes(le.Uint64(hiA[8:]), le.Uint64(hiB[8:])))<<32
		le.PutUint64(lo, l)
		le.PutUint64(hi, h)
		fails += bits.OnesCount64(failing(l, h, limit))
	}
	return done - fails, done
}

// RowMinMax returns the minimum and maximum intensity of a pixel row,
// equivalent to folding Interval.Union over Point(row[i]) — the
// differential property test pins the equivalence across all alignments
// and tail lengths. The empty row returns the Empty() sentinel bounds.
func RowMinMax(row []uint8) (lo, hi uint8) {
	lo, hi = MaxIntensity, 0
	i := 0
	if len(row) >= 16 {
		// The minimum and maximum chains are independent, and the word
		// stride keeps the loads sequential.
		minW := ^uint64(0)
		maxW := uint64(0)
		for ; i+8 <= len(row); i += 8 {
			w := binary.LittleEndian.Uint64(row[i:])
			minW = MinBytes(minW, w)
			maxW = MaxBytes(maxW, w)
		}
		for s := 0; s < 64; s += 8 {
			lo = min(lo, uint8(minW>>s))
			hi = max(hi, uint8(maxW>>s))
		}
	}
	for ; i < len(row); i++ {
		lo = min(lo, row[i])
		hi = max(hi, row[i])
	}
	return lo, hi
}
