package homog

import (
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

// TestRowsMinMaxMatchesScalar: the two-row element-wise reduction equals
// per-element scalar min/max for every length residue and alignment, and
// never writes past len(a).
func TestRowsMinMaxMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	aBack := make([]uint8, 160)
	bBack := make([]uint8, 160)
	for n := 0; n <= 80; n++ {
		for off := 0; off < 8; off++ {
			a, b := aBack[off:off+n], bBack[off:off+n]
			for i := range a {
				a[i] = uint8(rng.UintN(256))
				b[i] = uint8(rng.UintN(256))
			}
			minDst := make([]uint8, n+1)
			maxDst := make([]uint8, n+1)
			minDst[n], maxDst[n] = 0xAB, 0xCD // canaries past the row
			RowsMinMax(a, b, minDst[:n], maxDst[:n])
			for i := 0; i < n; i++ {
				if minDst[i] != min(a[i], b[i]) || maxDst[i] != max(a[i], b[i]) {
					t.Fatalf("len %d off %d i %d: RowsMinMax = (%d, %d); want (%d, %d)",
						n, off, i, minDst[i], maxDst[i], min(a[i], b[i]), max(a[i], b[i]))
				}
			}
			if minDst[n] != 0xAB || maxDst[n] != 0xCD {
				t.Fatalf("len %d off %d: RowsMinMax wrote past the row", n, off)
			}
		}
	}
}

func TestRowsMinMaxPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched row lengths")
		}
	}()
	RowsMinMax(make([]uint8, 4), make([]uint8, 5), make([]uint8, 5), make([]uint8, 5))
}
