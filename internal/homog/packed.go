package homog

import "encoding/binary"

// MaxIntensity is the largest representable pixel intensity. The Empty
// sentinel ({MaxIntensity, 0}) and the packed word path below both derive
// from it, so the scalar and SWAR code cannot drift apart.
const MaxIntensity = 255

// The packed path processes 8 pixels per uint64 with SWAR byte-wise
// min/max (the multi-spin-coding idiom: many small lanes in one integer
// word, no branches, both reduction chains independent so dual integer
// pipes stay full). Bytes are split into even and odd 16-bit lanes; each
// lane holds one pixel value in [0, 255], so per-lane arithmetic cannot
// carry across lanes.
const (
	laneMask uint64 = 0x00FF00FF00FF00FF // low byte of each 16-bit lane
	laneBias uint64 = 0x0100010001000100 // bit 8 of each lane
	laneOne  uint64 = 0x0001000100010001 // 1 in each lane
)

// laneGE returns, per 16-bit lane, 0x00FF where x >= y and 0 elsewhere.
// Lanes hold byte values, so (x|bias)-y stays within its lane and bit 8 of
// the per-lane difference is set exactly when x >= y.
func laneGE(x, y uint64) uint64 {
	return (((x | laneBias) - y) >> 8 & laneOne) * 0xFF
}

// laneMin selects per 16-bit lane the smaller of x and y.
func laneMin(x, y uint64) uint64 {
	m := laneGE(x, y)
	return y&m | x&^m
}

// laneMax selects per 16-bit lane the larger of x and y.
func laneMax(x, y uint64) uint64 {
	m := laneGE(x, y)
	return x&m | y&^m
}

// MinBytes returns the byte-wise minimum of two packed 8-pixel words.
func MinBytes(a, b uint64) uint64 {
	return laneMin(a&laneMask, b&laneMask) | laneMin(a>>8&laneMask, b>>8&laneMask)<<8
}

// MaxBytes returns the byte-wise maximum of two packed 8-pixel words.
func MaxBytes(a, b uint64) uint64 {
	return laneMax(a&laneMask, b&laneMask) | laneMax(a>>8&laneMask, b>>8&laneMask)<<8
}

// RowMinMax returns the minimum and maximum intensity of a pixel row,
// equivalent to folding Interval.Union over Point(row[i]) — the
// differential property test pins the equivalence across all alignments
// and tail lengths. The empty row returns the Empty() sentinel bounds.
func RowMinMax(row []uint8) (lo, hi uint8) {
	lo, hi = MaxIntensity, 0
	i := 0
	if len(row) >= 16 {
		// Two independent accumulator pairs per direction: the even/odd
		// lane splits inside MinBytes/MaxBytes already interleave, and the
		// word stride keeps the loads sequential.
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

// RowsMinMax writes the element-wise minimum and maximum of two
// equal-length pixel rows into minDst and maxDst (each at least len(a)).
// It is the vertical half of a 2×2 block reduction: quadsplit feeds two
// adjacent image rows through it, then folds horizontal pairs of the
// results to obtain level-1 block intervals.
func RowsMinMax(a, b, minDst, maxDst []uint8) {
	if len(a) != len(b) {
		panic("homog: RowsMinMax rows differ in length")
	}
	_ = minDst[:len(a)]
	_ = maxDst[:len(a)]
	i := 0
	for ; i+8 <= len(a); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(minDst[i:], MinBytes(x, y))
		binary.LittleEndian.PutUint64(maxDst[i:], MaxBytes(x, y))
	}
	for ; i < len(a); i++ {
		minDst[i] = min(a[i], b[i])
		maxDst[i] = max(a[i], b[i])
	}
}
