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

// TestMinMaxBytesExhaustiveLanes: the byte-lane compare behind
// MinBytes/MaxBytes agrees with the scalar operators for every byte pair
// in every lane, and lanes never interact: each pair is planted in each
// lane of a word whose other lanes hold adversarial neighbours (the
// extremes, and the values either side of bit 7, in both orders), so a
// borrow across bytes or a mask slip would corrupt the lane under test
// or a neighbour.
func TestMinMaxBytesExhaustiveLanes(t *testing.T) {
	neighbours := [][2]uint8{{0xFF, 0x00}, {0x00, 0xFF}, {0x80, 0x7F}, {0x7F, 0x80}}
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			for lane := 0; lane < 8; lane++ {
				nb := neighbours[(x+y+lane)%len(neighbours)]
				a := uint64(nb[0]) * 0x0101010101010101 &^ (0xFF << (8 * lane))
				b := uint64(nb[1]) * 0x0101010101010101 &^ (0xFF << (8 * lane))
				a |= uint64(x) << (8 * lane)
				b |= uint64(y) << (8 * lane)
				gotMin, gotMax := MinBytes(a, b), MaxBytes(a, b)
				for l := 0; l < 8; l++ {
					p, q := uint8(a>>(8*l)), uint8(b>>(8*l))
					if uint8(gotMin>>(8*l)) != min(p, q) || uint8(gotMax>>(8*l)) != max(p, q) {
						t.Fatalf("pair (%d, %d) in lane %d: lane %d of Min/MaxBytes(%#x, %#x) = %d, %d; want %d, %d",
							x, y, lane, l, a, b, uint8(gotMin>>(8*l)), uint8(gotMax>>(8*l)), min(p, q), max(p, q))
					}
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

// scalarFold is the reference for the row kernels: block i over rows A
// and B is the Interval.Union fold of children 2i and 2i+1 of both rows,
// and it is solid when its Range is at most threshold. A pixel row is a
// row of children whose lo and hi rows are the same.
func scalarFold(loA, loB, hiA, hiB []uint8, threshold int) (lo, hi []uint8, solid int) {
	for c := 0; c+1 < len(loA); c += 2 {
		iv := Empty()
		for _, k := range []int{c, c + 1} {
			iv = iv.Union(Interval{Lo: loA[k], Hi: hiA[k]}).Union(Interval{Lo: loB[k], Hi: hiB[k]})
		}
		lo, hi = append(lo, iv.Lo), append(hi, iv.Hi)
		if iv.Range() <= threshold {
			solid++
		}
	}
	return lo, hi, solid
}

// foldRows folds rows A over B into len(loA)/2 blocks as quadsplit's level
// pass does: the pixel kernel when pixel is set (then hiA and hiB must be
// loA and loB), the block kernel otherwise, and the pass's scalar tail
// for the blocks the kernel leaves. The output rows start at offset off
// of their buffers. It fails t unless the kernel folds whole words only,
// every one it can, and writes no byte past them.
func foldRows(t *testing.T, loA, loB, hiA, hiB []uint8, off, threshold int, pixel bool) (lo, hi []uint8, solid int) {
	t.Helper()
	n := len(loA) / 2
	lo, hi = make([]uint8, off+n)[off:], make([]uint8, off+n)[off:]
	for i := range lo {
		lo[i], hi[i] = 0xA5, 0x5A
	}
	var done int
	if pixel {
		solid, done = FoldPixelRows(loA, loB, lo, hi, threshold)
	} else {
		solid, done = FoldBlockRows(loA, loB, hiA, hiB, lo, hi, threshold)
	}
	if done != n&^7 {
		t.Fatalf("pixel=%t: %d blocks folded of %d, want %d", pixel, done, n, n&^7)
	}
	for i := done; i < n; i++ {
		if lo[i] != 0xA5 || hi[i] != 0x5A {
			t.Fatalf("pixel=%t: block %d past the %d folded was written", pixel, i, done)
		}
		lo[i] = min(loA[2*i], loA[2*i+1], loB[2*i], loB[2*i+1])
		hi[i] = max(hiA[2*i], hiA[2*i+1], hiB[2*i], hiB[2*i+1])
		if int(hi[i])-int(lo[i]) <= threshold {
			solid++
		}
	}
	return lo, hi, solid
}

// checkFoldRows runs both row kernels on rows A over B, the pixel kernel
// on the lo rows alone, and fails t unless each equals scalarFold block by
// block and in the solid count.
func checkFoldRows(t *testing.T, loA, loB, hiA, hiB []uint8, off, threshold int) {
	t.Helper()
	for _, pixel := range []bool{true, false} {
		ha, hb := hiA, hiB
		if pixel {
			ha, hb = loA, loB
		}
		wantLo, wantHi, want := scalarFold(loA, loB, ha, hb, threshold)
		gotLo, gotHi, got := foldRows(t, loA, loB, ha, hb, off, threshold, pixel)
		for i := range wantLo {
			if gotLo[i] != wantLo[i] || gotHi[i] != wantHi[i] {
				t.Fatalf("pixel=%t, %d children at offset %d, T=%d: block %d folds to [%d,%d], want [%d,%d]",
					pixel, len(loA), off, threshold, i, gotLo[i], gotHi[i], wantLo[i], wantHi[i])
			}
		}
		if got != want {
			t.Fatalf("pixel=%t, %d children at offset %d, T=%d: %d blocks solid, want %d",
				pixel, len(loA), off, threshold, got, want)
		}
	}
}

// foldThresholds are the thresholds the row kernels are checked at: below
// every range, the small ranges noise and plateaus meet, the top of the
// uint8 range and beyond, and the ints' extremes, which the kernels clamp.
var foldThresholds = []int{math.MinInt, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 254, 255, 300, math.MaxInt}

// TestFoldRowsMatchScalarAllLengths: both row kernels, finished by the
// scalar tail, equal the scalar fold for every row length 0–80 (every
// residue of the 8-block word loop, and rows too short for one word) at
// every start offset 0–7 and every threshold of foldThresholds. Each row
// pair sits around a random level, ±12 with ranges up to 6, so the blocks'
// ranges fall either side of the small thresholds, and one child in
// eight is any interval of the whole intensity range.
func TestFoldRowsMatchScalarAllLengths(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var backing [4][88]uint8
	for n := 0; n <= 80; n++ {
		for off := 0; off < 8; off++ {
			var rows [4][]uint8
			for r := range rows {
				rows[r] = backing[r][off : off+n]
			}
			loA, loB, hiA, hiB := rows[0], rows[1], rows[2], rows[3]
			base := int(rng.UintN(256))
			for i := 0; i < n; i++ {
				for _, r := range [][2][]uint8{{loA, hiA}, {loB, hiB}} {
					lo := min(max(base+int(rng.UintN(25))-12, 0), 255)
					hi := min(lo+int(rng.UintN(7)), 255)
					if rng.UintN(8) == 0 {
						lo = int(rng.UintN(256))
						hi = lo + int(rng.UintN(uint(256-lo)))
					}
					r[0][i], r[1][i] = uint8(lo), uint8(hi)
				}
			}
			for _, threshold := range foldThresholds {
				checkFoldRows(t, loA, loB, hiA, hiB, off, threshold)
			}
		}
	}
}

// TestFoldRowsExhaustiveLanes: for every byte pair (x, y), each row kernel
// folds a block whose children's least bound is min(x, y) and greatest
// max(x, y) into exactly that interval, and counts it against thresholds
// on both sides of its range. The block rotates through the 8 blocks of a
// word with the pair, and so do the children that carry the two bounds;
// every other block spans 0–255, from children at the two extremes in
// the pixel rows and of range 255 in the block rows, so a borrow across
// bytes or lanes, or a mask slip, would corrupt the block under test or
// the count.
func TestFoldRowsExhaustiveLanes(t *testing.T) {
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			k := x*256 + y
			block, p, q := k%8, k/8%4, k/32%4
			m, mm := uint8(min(x, y)), uint8(max(x, y))
			mid := uint8((int(m) + int(mm)) / 2)
			var pix [2][16]uint8    // the pixel kernel's rows
			var lo, hi [2][16]uint8 // the block kernel's rows
			for c := 0; c < 16; c++ {
				pix[0][c], pix[1][c] = uint8(0xFF*(c%2)), uint8(0xFF*(1-c%2))
				lo[0][c], lo[1][c], hi[0][c], hi[1][c] = 0, 0, 0xFF, 0xFF
			}
			// Child i of the block sits in row i/2, column 2·block+i%2. In
			// the pixel rows child p holds the least bound and the next
			// child round from it the greatest.
			for i := 0; i < 4; i++ {
				r, c := i/2, 2*block+i%2
				pix[r][c], lo[r][c], hi[r][c] = mid, mid, mid
				switch i {
				case p:
					pix[r][c] = m
				case (p + 1 + q%3) % 4:
					pix[r][c] = mm
				}
				if i == p {
					lo[r][c] = m
				}
				if i == q {
					hi[r][c] = mm
				}
			}
			d := int(mm) - int(m)
			for _, threshold := range []int{math.MinInt, -1, d - 1, d, 254, 255, math.MaxInt} {
				want := 0
				if d <= threshold {
					want++
				}
				if threshold >= 255 {
					want += 7
				}
				for _, pixel := range []bool{true, false} {
					var gotLo, gotHi [8]uint8
					var n, done int
					if pixel {
						n, done = FoldPixelRows(pix[0][:], pix[1][:], gotLo[:], gotHi[:], threshold)
					} else {
						n, done = FoldBlockRows(lo[0][:], lo[1][:], hi[0][:], hi[1][:], gotLo[:], gotHi[:], threshold)
					}
					if done != 8 {
						t.Fatalf("pixel=%t: %d blocks folded, want 8", pixel, done)
					}
					for b := 0; b < 8; b++ {
						wantLo, wantHi := uint8(0), uint8(0xFF)
						if b == block {
							wantLo, wantHi = m, mm
						}
						if gotLo[b] != wantLo || gotHi[b] != wantHi {
							t.Fatalf("pixel=%t, pair (%d, %d) in block %d: block %d folds to [%d,%d], want [%d,%d]",
								pixel, x, y, block, b, gotLo[b], gotHi[b], wantLo, wantHi)
						}
					}
					if n != want {
						t.Fatalf("pixel=%t, pair (%d, %d), T=%d: %d blocks pass, want %d", pixel, x, y, threshold, n, want)
					}
				}
			}
		}
	}
}

// FuzzFoldRows pins both row kernels, each finished by the scalar tail,
// to the scalar Interval.Union fold: two rows of lo and hi bounds, hi ≥
// lo, of any length 0–80, at any start offset 0–7, and any threshold in
// [−2, 300]. The pixel kernel folds the lo rows alone. Bytes of data set
// the bounds in order (loA, loB, then each hi's excess over its lo, per
// child), and a PCG seeded by seed sets the rest.
func FuzzFoldRows(f *testing.F) {
	f.Add(uint8(80), uint8(0), uint16(12), uint64(1), []byte(nil))
	f.Add(uint8(33), uint8(5), uint16(2), uint64(2), []byte{7, 9, 0, 3, 8, 8, 1, 0})
	f.Add(uint8(16), uint8(7), uint16(0), uint64(3), []byte{0, 255, 0, 0, 255, 0, 0, 0})
	f.Add(uint8(47), uint8(3), uint16(302), uint64(4), []byte{128, 127, 0, 0})
	f.Fuzz(func(t *testing.T, n, off uint8, thr uint16, seed uint64, data []byte) {
		size, at, threshold := int(n)%81, int(off)%8, int(thr)%303-2
		rng := rand.New(rand.NewPCG(seed, 0xF01D))
		next := func() uint8 {
			if len(data) > 0 {
				v := data[0]
				data = data[1:]
				return v
			}
			return uint8(rng.UintN(256))
		}
		var rows [4][]uint8
		for r := range rows {
			rows[r] = make([]uint8, at+size)[at:]
		}
		loA, loB, hiA, hiB := rows[0], rows[1], rows[2], rows[3]
		for i := 0; i < size; i++ {
			loA[i], loB[i] = next(), next()
			hiA[i] = loA[i] + uint8(int(next())%(256-int(loA[i])))
			hiB[i] = loB[i] + uint8(int(next())%(256-int(loB[i])))
		}
		checkFoldRows(t, loA, loB, hiA, hiB, at, threshold)
	})
}
