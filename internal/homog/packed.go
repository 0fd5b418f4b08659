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

// FoldQuads folds 16 blocks of each of two adjacent rows into the 8 blocks
// of the level above, block i covering blocks 2i and 2i+1 of both rows.
// loA and loB hold the rows' lower bounds, hiA and hiB their upper bounds,
// at least 16 bytes each. It returns the 8 folded bounds, one byte per
// block in row order, and the number of blocks whose range is at most
// threshold.
func FoldQuads(loA, loB, hiA, hiB []uint8, threshold int) (lo, hi uint64, n int) {
	le := binary.LittleEndian
	l0 := MinBytes(le.Uint64(loA), le.Uint64(loB))
	l1 := MinBytes(le.Uint64(loA[8:]), le.Uint64(loB[8:]))
	h0 := MaxBytes(le.Uint64(hiA), le.Uint64(hiB))
	h1 := MaxBytes(le.Uint64(hiA[8:]), le.Uint64(hiB[8:]))
	// A block's two columns sit in an even and an odd lane.
	lo = packLanes(laneMin(l0&laneMask, l0>>8&laneMask)) | packLanes(laneMin(l1&laneMask, l1>>8&laneMask))<<32
	hi = packLanes(laneMax(h0&laneMask, h0>>8&laneMask)) | packLanes(laneMax(h1&laneMask, h1>>8&laneMask))<<32
	// Every block's hi is at least its lo, so no byte of d borrows. With
	// T clamped to [-1, MaxIntensity], bit 8 of each lane of
	// (d|bias)-(T+1) is set where d > T, so T < 0 passes no block.
	d := hi - lo
	limit := uint64(min(max(threshold, -1), MaxIntensity)+1) * laneOne
	fail := ((d&laneMask|laneBias)-limit)&laneBias | ((d>>8&laneMask|laneBias)-limit)&laneBias>>1
	return lo, hi, 8 - bits.OnesCount64(fail)
}

// packLanes moves the low bytes of x's four 16-bit lanes into its low four
// bytes, in order.
func packLanes(x uint64) uint64 {
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & 0xFFFFFFFF
}
