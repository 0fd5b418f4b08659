package homog

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// scalarRowMinMax is the reference the packed path must match: a plain
// fold of Interval.Union over Point, exactly the code the word path
// replaced.
func scalarRowMinMax(row []uint8) (uint8, uint8) {
	iv := Empty()
	for _, p := range row {
		iv = iv.Union(Point(p))
	}
	return iv.Lo, iv.Hi
}

// TestMinMaxBytesExhaustiveLanes: the SWAR byte min/max agrees with the
// scalar operators for every byte pair in at least one lane position, and
// lanes never interact — each pair is planted in a different lane of the
// same word alongside adversarial neighbours.
func TestMinMaxBytesExhaustiveLanes(t *testing.T) {
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			lane := (x*256 + y) % 8
			// Neighbour lanes carry the extreme values, so any cross-lane
			// carry or mask slip would corrupt the lane under test.
			a := ^uint64(0) &^ (0xFF << (8 * lane)) // 0xFF neighbours
			b := uint64(0)                          // 0x00 neighbours
			a |= uint64(x) << (8 * lane)
			b |= uint64(y) << (8 * lane)
			gotMin := uint8(MinBytes(a, b) >> (8 * lane))
			gotMax := uint8(MaxBytes(a, b) >> (8 * lane))
			if gotMin != min(uint8(x), uint8(y)) || gotMax != max(uint8(x), uint8(y)) {
				t.Fatalf("lane %d: Min/MaxBytes(%#x, %#x) = %d, %d; want %d, %d",
					lane, x, y, gotMin, gotMax, min(uint8(x), uint8(y)), max(uint8(x), uint8(y)))
			}
			// Neighbour lanes must be untouched by the lane under test.
			for l := 0; l < 8; l++ {
				if l == lane {
					continue
				}
				if uint8(MinBytes(a, b)>>(8*l)) != 0 || uint8(MaxBytes(a, b)>>(8*l)) != 0xFF {
					t.Fatalf("lane %d leaked into lane %d for pair (%d, %d)", lane, l, x, y)
				}
			}
		}
	}
}

// TestRowMinMaxMatchesScalarAllLengths: the packed row reduction equals
// the scalar Union fold for every length 0..129 — covering the empty row
// (Empty sentinel), sub-word rows, the 16-byte engagement threshold, and
// every tail residue of the 8-byte word loop — at every alignment offset
// within a word, over full-range random content.
func TestRowMinMaxMatchesScalarAllLengths(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	backing := make([]uint8, 256)
	for n := 0; n <= 129; n++ {
		for off := 0; off < 8; off++ {
			row := backing[off : off+n]
			for i := range row {
				row[i] = uint8(rng.UintN(256))
			}
			gotLo, gotHi := RowMinMax(row)
			wantLo, wantHi := scalarRowMinMax(row)
			if gotLo != wantLo || gotHi != wantHi {
				t.Fatalf("len %d off %d: RowMinMax = (%d, %d), scalar fold = (%d, %d)",
					n, off, gotLo, gotHi, wantLo, wantHi)
			}
		}
	}
}

// TestRowMinMaxQuick: randomised lengths and content, including
// constant-value and extreme-value rows the uniform generator rarely
// produces.
func TestRowMinMaxQuick(t *testing.T) {
	err := quick.Check(func(row []uint8, fill uint8, asFill bool) bool {
		if asFill {
			for i := range row {
				row[i] = fill
			}
		}
		gotLo, gotHi := RowMinMax(row)
		wantLo, wantHi := scalarRowMinMax(row)
		return gotLo == wantLo && gotHi == wantHi
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFoldQuadsExhaustiveLanes: for every byte pair (x, y), FoldQuads
// folds a block whose children's least lower bound is min(x, y) and
// greatest upper bound max(x, y) into exactly that interval, and counts it
// against thresholds on both sides of its range. The pair's block and the
// children that carry its bounds rotate with the pair, and every
// neighbour block has children of range 255, so a cross-lane carry or a
// mask slip would corrupt the block under test or the count.
func TestFoldQuadsExhaustiveLanes(t *testing.T) {
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			k := x*256 + y
			block, p, q := k%8, k/8%4, k/32%4
			m, mm := uint8(min(x, y)), uint8(max(x, y))
			mid := uint8((int(m) + int(mm)) / 2)
			var lo, hi [2][16]uint8 // the two rows' bounds
			for r := range lo {
				for c := range lo[r] {
					lo[r][c], hi[r][c] = 0, 0xFF
				}
			}
			// Child i of the block sits in row i/2, column 2·block+i%2.
			for i := 0; i < 4; i++ {
				r, c := i/2, 2*block+i%2
				lo[r][c], hi[r][c] = mid, mid
				if i == p {
					lo[r][c] = m
				}
				if i == q {
					hi[r][c] = mm
				}
			}
			d := int(mm) - int(m)
			for _, threshold := range []int{math.MinInt, -1, d - 1, d, 254, 255, math.MaxInt} {
				gotLo, gotHi, n := FoldQuads(lo[0][:], lo[1][:], hi[0][:], hi[1][:], threshold)
				for b := 0; b < 8; b++ {
					wantLo, wantHi := uint8(0), uint8(0xFF)
					if b == block {
						wantLo, wantHi = m, mm
					}
					if uint8(gotLo>>(8*b)) != wantLo || uint8(gotHi>>(8*b)) != wantHi {
						t.Fatalf("pair (%d, %d) in block %d: block %d folds to [%d,%d], want [%d,%d]",
							x, y, block, b, uint8(gotLo>>(8*b)), uint8(gotHi>>(8*b)), wantLo, wantHi)
					}
				}
				want := 0
				if d <= threshold {
					want++
				}
				if threshold >= 255 {
					want += 7
				}
				if n != want {
					t.Fatalf("pair (%d, %d), T=%d: %d blocks pass, want %d", x, y, threshold, n, want)
				}
			}
		}
	}
}
