package unionfind

import "regiongrow/internal/pixmap"

// DSU is a disjoint-set forest with union by size and path halving.
type DSU struct {
	parent []int32
	size   []int32
	sets   int
}

// New returns a forest of n singleton sets.
func New(n int) *DSU {
	d := &DSU{parent: make([]int32, n), size: make([]int32, n), sets: n}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Sets returns the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Find returns the canonical representative of x's set.
func (d *DSU) Find(x int) int {
	for d.parent[x] != int32(x) {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = int(d.parent[x])
	}
	return x
}

// Union merges the sets of a and b and reports whether they were distinct.
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = int32(ra)
	d.size[ra] += d.size[rb]
	d.sets--
	return true
}

// Same reports whether a and b are in one set.
func (d *DSU) Same(a, b int) bool { return d.Find(a) == d.Find(b) }

// MinLabels relabels every element with the smallest element index of its
// set, the canonical form the region engines use so that results are
// comparable across engines.
func (d *DSU) MinLabels() []int32 {
	n := len(d.parent)
	minOf := make([]int32, n)
	for i := range minOf {
		minOf[i] = int32(n) // sentinel: larger than any index
	}
	for i := 0; i < n; i++ {
		r := d.Find(i)
		if int32(i) < minOf[r] {
			minOf[r] = int32(i)
		}
	}
	labels := make([]int32, n)
	for i := 0; i < n; i++ {
		labels[i] = minOf[d.Find(i)]
	}
	return labels
}

// CCL labels 4-connected components of the image, joining adjacent pixels
// whose absolute intensity difference is at most tau. It returns the
// min-index labelling and the component count.
func CCL(im *pixmap.Image, tau int) (labels []int32, components int) {
	d := New(im.W * im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			i := im.Index(x, y)
			v := int(im.At(x, y))
			if x+1 < im.W && abs(v-int(im.At(x+1, y))) <= tau {
				d.Union(i, i+1)
			}
			if y+1 < im.H && abs(v-int(im.At(x, y+1))) <= tau {
				d.Union(i, i+im.W)
			}
		}
	}
	return d.MinLabels(), d.Sets()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
