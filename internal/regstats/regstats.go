package regstats

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

// Region summarises one final region.
type Region struct {
	// ID is the region label (linear index of its first pixel).
	ID int32 `json:"id"`
	// Area is the pixel count.
	Area int `json:"area"`
	// BBox is the bounding box [x0, y0, x1, y1), half-open.
	BBox [4]int `json:"bbox"`
	// CentroidX, CentroidY locate the mean pixel position.
	CentroidX float64 `json:"centroidX"`
	CentroidY float64 `json:"centroidY"`
	// Mean is the mean intensity.
	Mean float64 `json:"mean"`
	// Lo and Hi bound the region's intensities (the merge interval).
	Lo uint8 `json:"lo"`
	Hi uint8 `json:"hi"`
	// Perimeter counts pixel edges adjacent to another region or the
	// image border.
	Perimeter int `json:"perimeter"`
	// Neighbors lists adjacent region IDs in ascending order.
	Neighbors []int32 `json:"neighbors"`
}

// IV returns the region's intensity interval.
func (r *Region) IV() homog.Interval { return homog.Interval{Lo: r.Lo, Hi: r.Hi} }

// Compute derives the statistics of every region of a labelled image,
// returned in ascending ID order. It panics if labels does not match the
// image geometry.
//
// It walks each row's maximal label runs rather than its pixels. A row
// whose labels equal the row above's reuses that row's run list and has
// no vertical boundary; any other row merges its run list with the row
// above's to find the edges between different regions. Adjacent pairs are
// packed into uint64s, sorted once, and handed out per region.
func Compute(im *pixmap.Image, labels []int32) []Region {
	if len(labels) != im.W*im.H {
		panic(fmt.Sprintf("regstats: %d labels for %dx%d image", len(labels), im.W, im.H))
	}
	w := walk{index: make(map[int32]int32)}
	var above, cur []run
	for y := 0; y < im.H; y++ {
		row, pix := labels[y*im.W:(y+1)*im.W], im.Pix[y*im.W:(y+1)*im.W]
		border := 0 // image borders above and below the row
		if y == 0 {
			border++
		}
		if y == im.H-1 {
			border++
		}
		var aboveRow []int32
		if y > 0 {
			aboveRow = labels[(y-1)*im.W : y*im.W]
			if slices.Equal(row, aboveRow) {
				// The runs of the row above, with its horizontal pairs
				// already recorded and no vertical boundary between them.
				w.add(above, pix, y, border)
				continue
			}
		}
		cur = w.runs(cur[:0], row, above, aboveRow, y)
		w.add(cur, pix, y, border)
		w.vertical(above, cur)
		above, cur = cur, above
	}
	return w.regions()
}

// run is one maximal run of a label within a row: pixels [x0, x1) of the
// region at index reg of the walk's accumulators.
type run struct{ x0, x1, reg int32 }

// accum is one region under construction.
type accum struct {
	Region
	sumX, sumY, sumV int64
}

// walk holds the state of one Compute call.
type walk struct {
	acc   []accum         // regions in first-appearance order
	index map[int32]int32 // label -> index into acc
	pairs []uint64        // packed adjacent pairs, both directions, with repeats
}

// signBit flips an int32 label into a uint32 key with the same order.
const signBit = 1 << 31

// runs appends the maximal runs of row to dst, resolving each run's
// region, and records the pair of every two consecutive runs. A run takes
// its region from the run above that covers its first pixel when that
// pixel's label matches; only a run whose label is not found there costs
// a map lookup.
func (w *walk) runs(dst []run, row []int32, above []run, aboveRow []int32, y int) []run {
	k := 0 // the run of above covering x0
	for x := 0; x < len(row); {
		lab, x0 := row[x], x
		for x++; x < len(row) && row[x] == lab; x++ {
		}
		var reg int32
		if aboveRow != nil && aboveRow[x0] == lab {
			for above[k].x1 <= int32(x0) {
				k++
			}
			reg = above[k].reg
		} else {
			reg = w.region(lab, x0, y)
		}
		if len(dst) > 0 {
			w.pair(dst[len(dst)-1].reg, reg)
		}
		dst = append(dst, run{x0: int32(x0), x1: int32(x), reg: reg})
	}
	return dst
}

// region returns the accumulator index of lab, appending a new region
// first seen at (x0, y) when there is none.
func (w *walk) region(lab int32, x0, y int) int32 {
	if i, ok := w.index[lab]; ok {
		return i
	}
	i := int32(len(w.acc))
	w.index[lab] = i
	w.acc = append(w.acc, accum{Region: Region{ID: lab, BBox: [4]int{x0, y, x0 + 1, y + 1}, Lo: 255, Hi: 0}})
	return i
}

// add folds the runs of row y into their regions. border counts the image
// borders above and below the row: each run's pixels face them with an
// edge apiece. Runs are maximal, so both ends of a run face the image
// border or another label.
func (w *walk) add(runs []run, pix []uint8, y, border int) {
	for _, r := range runs {
		a := &w.acc[r.reg]
		x0, x1 := int(r.x0), int(r.x1)
		n := x1 - x0
		a.Area += n
		a.BBox[0] = min(a.BBox[0], x0)
		a.BBox[2] = max(a.BBox[2], x1)
		a.BBox[3] = y + 1
		lo, hi := homog.RowMinMax(pix[x0:x1])
		a.Lo, a.Hi = min(a.Lo, lo), max(a.Hi, hi)
		a.sumV += rowSum(pix[x0:x1])
		a.sumX += int64(n * (x0 + x1 - 1) / 2)
		a.sumY += int64(n * y)
		a.Perimeter += 2 + border*n
	}
}

// rowSum returns the sum of a pixel row. It adds eight pixels at a time:
// one add folds byte pairs into 16-bit lanes of at most 510, and one
// multiply sums the four lanes into the top 16 bits.
func rowSum(row []uint8) int64 {
	const m = 0x00FF00FF00FF00FF
	var s uint64
	i := 0
	for ; i+8 <= len(row); i += 8 {
		w := binary.LittleEndian.Uint64(row[i:])
		w = w&m + w>>8&m
		s += w * 0x0001000100010001 >> 48
	}
	for ; i < len(row); i++ {
		s += uint64(row[i])
	}
	return int64(s)
}

// vertical merges the run lists of two consecutive rows: each overlap of
// two different regions is that many edges on both perimeters, and makes
// the two adjacent.
func (w *walk) vertical(above, cur []run) {
	for i, j := 0, 0; i < len(above) && j < len(cur); {
		a, b := above[i], cur[j]
		if a.reg != b.reg {
			n := int(min(a.x1, b.x1) - max(a.x0, b.x0))
			w.acc[a.reg].Perimeter += n
			w.acc[b.reg].Perimeter += n
			w.pair(a.reg, b.reg)
		}
		if a.x1 <= b.x1 {
			i++
		}
		if b.x1 <= a.x1 {
			j++
		}
	}
}

// pair records that regions a and b (accumulator indices) are adjacent.
func (w *walk) pair(a, b int32) {
	ka, kb := uint64(uint32(w.acc[a].ID)^signBit), uint64(uint32(w.acc[b].ID)^signBit)
	w.pairs = append(w.pairs, ka<<32|kb, kb<<32|ka)
}

// regions finishes the accumulators in ascending ID order and hands each
// its run of the sorted pairs as its neighbour list.
func (w *walk) regions() []Region {
	out := make([]Region, len(w.acc))
	for i := range w.acc {
		a := &w.acc[i]
		out[i] = a.Region
		area := float64(a.Area)
		out[i].CentroidX = float64(a.sumX) / area
		out[i].CentroidY = float64(a.sumY) / area
		out[i].Mean = float64(a.sumV) / area
	}
	slices.SortFunc(out, func(a, b Region) int { return cmp.Compare(a.ID, b.ID) })
	slices.Sort(w.pairs)
	pairs := slices.Compact(w.pairs)
	nbrs := make([]int32, len(pairs))
	k := 0
	for i := range out {
		key, lo := uint32(out[i].ID)^signBit, k
		for ; k < len(pairs) && uint32(pairs[k]>>32) == key; k++ {
			nbrs[k] = int32(uint32(pairs[k]) ^ signBit)
		}
		out[i].Neighbors = nbrs[lo:k:k]
	}
	return out
}

// WriteJSON emits the region list as indented JSON.
func WriteJSON(w io.Writer, regions []Region) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(regions); err != nil {
		return fmt.Errorf("regstats: encoding JSON: %w", err)
	}
	return nil
}

// WriteDOT emits the final region adjacency graph in Graphviz DOT form:
// one node per region (labelled with its area and intensity interval),
// one edge per adjacent pair.
func WriteDOT(w io.Writer, regions []Region) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("graph rag {\n")
	pr("  // final region adjacency graph\n")
	for _, r := range regions {
		pr("  r%d [label=\"%d\\narea %d\\n[%d,%d]\"];\n", r.ID, r.ID, r.Area, r.Lo, r.Hi)
	}
	for _, r := range regions {
		for _, n := range r.Neighbors {
			if n > r.ID { // each undirected edge once
				pr("  r%d -- r%d;\n", r.ID, n)
			}
		}
	}
	pr("}\n")
	if err != nil {
		return fmt.Errorf("regstats: writing DOT: %w", err)
	}
	return nil
}

// Summary aggregates whole-segmentation statistics for reports.
type Summary struct {
	Regions      int     `json:"regions"`
	LargestArea  int     `json:"largestArea"`
	SmallestArea int     `json:"smallestArea"`
	MeanArea     float64 `json:"meanArea"`
	TotalEdges   int     `json:"adjacencies"`
	MaxRange     int     `json:"maxIntensityRange"`
	TotalPerim   int     `json:"totalPerimeter"`
}

// Summarize reduces a region list to aggregate statistics.
func Summarize(regions []Region) Summary {
	s := Summary{Regions: len(regions)}
	if len(regions) == 0 {
		return s
	}
	s.SmallestArea = regions[0].Area
	total := 0
	for _, r := range regions {
		total += r.Area
		if r.Area > s.LargestArea {
			s.LargestArea = r.Area
		}
		if r.Area < s.SmallestArea {
			s.SmallestArea = r.Area
		}
		s.TotalEdges += len(r.Neighbors)
		if rg := r.IV().Range(); rg > s.MaxRange {
			s.MaxRange = rg
		}
		s.TotalPerim += r.Perimeter
	}
	s.TotalEdges /= 2
	s.MeanArea = float64(total) / float64(len(regions))
	return s
}
