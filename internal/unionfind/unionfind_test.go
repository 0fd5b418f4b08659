package unionfind

import (
	"testing"
	"testing/quick"

	"regiongrow/internal/pixmap"
)

func TestSingletons(t *testing.T) {
	d := New(5)
	if d.Sets() != 5 || d.Len() != 5 {
		t.Fatalf("Sets=%d Len=%d", d.Sets(), d.Len())
	}
	for i := 0; i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("Find(%d) = %d", i, d.Find(i))
		}
		if d.SizeOf(i) != 1 {
			t.Fatalf("SizeOf(%d) = %d", i, d.SizeOf(i))
		}
	}
}

func TestUnionBasics(t *testing.T) {
	d := New(4)
	if !d.Union(0, 1) {
		t.Fatal("first union reported no-op")
	}
	if d.Union(1, 0) {
		t.Fatal("repeat union reported change")
	}
	if !d.Same(0, 1) || d.Same(0, 2) {
		t.Fatal("Same wrong")
	}
	if d.Sets() != 3 {
		t.Fatalf("Sets = %d", d.Sets())
	}
	d.Union(2, 3)
	d.Union(0, 3)
	if d.Sets() != 1 || d.SizeOf(1) != 4 {
		t.Fatalf("Sets=%d SizeOf=%d", d.Sets(), d.SizeOf(1))
	}
}

// naive is a reference implementation using label arrays.
type naive struct{ label []int }

func newNaive(n int) *naive {
	l := make([]int, n)
	for i := range l {
		l[i] = i
	}
	return &naive{l}
}

func (nv *naive) union(a, b int) {
	la, lb := nv.label[a], nv.label[b]
	if la == lb {
		return
	}
	for i, l := range nv.label {
		if l == lb {
			nv.label[i] = la
		}
	}
}

func (nv *naive) same(a, b int) bool { return nv.label[a] == nv.label[b] }

func TestAgainstNaive(t *testing.T) {
	err := quick.Check(func(ops []uint16) bool {
		const n = 24
		d := New(n)
		nv := newNaive(n)
		for _, op := range ops {
			a, b := int(op)%n, int(op>>8)%n
			d.Union(a, b)
			nv.union(a, b)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.Same(i, j) != nv.same(i, j) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinLabels(t *testing.T) {
	d := New(6)
	d.Union(3, 5)
	d.Union(1, 3)
	labels := d.MinLabels()
	want := []int32{0, 1, 2, 1, 4, 1}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("MinLabels = %v, want %v", labels, want)
		}
	}
}

func TestMinLabelsCanonical(t *testing.T) {
	// Property: the label of every element is the smallest index in its
	// set, and labels respect Same.
	err := quick.Check(func(ops []uint16) bool {
		const n = 20
		d := New(n)
		for _, op := range ops {
			d.Union(int(op)%n, int(op>>8)%n)
		}
		labels := d.MinLabels()
		for i := 0; i < n; i++ {
			if int(labels[i]) > i {
				return false // label must be ≤ own index
			}
			if labels[labels[i]] != labels[i] {
				return false // labels are fixed points
			}
			for j := 0; j < n; j++ {
				if (labels[i] == labels[j]) != d.Same(i, j) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCCLUniform(t *testing.T) {
	im := pixmap.Uniform(8, 50)
	labels, comps := CCL(im, 0)
	if comps != 1 {
		t.Fatalf("uniform image: %d components", comps)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("uniform image label not 0")
		}
	}
}

func TestCCLCheckerboard(t *testing.T) {
	im := pixmap.Checkerboard(8, 0, 255)
	_, comps := CCL(im, 0)
	if comps != 64 {
		t.Fatalf("checkerboard: %d components, want 64", comps)
	}
	// With a permissive threshold everything joins.
	_, comps = CCL(im, 255)
	if comps != 1 {
		t.Fatalf("tau=255: %d components, want 1", comps)
	}
}

func TestCCLGradientChaining(t *testing.T) {
	// The gradient's neighbours differ by ≤ ceil(255/15) = 17, so CCL with
	// tau=17 chains the whole ramp into one component even though the
	// total range is 255 — the failure mode the region criterion avoids.
	im := pixmap.Gradient(16, 255)
	_, comps := CCL(im, 17)
	if comps != 1 {
		t.Fatalf("gradient chained into %d components, want 1", comps)
	}
}

func TestCCLTwoRegions(t *testing.T) {
	im := pixmap.New(8, 8)
	im.FillRect(0, 0, 8, 8, 10)
	im.FillRect(2, 2, 6, 6, 200)
	labels, comps := CCL(im, 5)
	if comps != 2 {
		t.Fatalf("nested rect CCL: %d components", comps)
	}
	if labels[0] == labels[im.Index(3, 3)] {
		t.Fatal("inner and outer share a label")
	}
}

// SizeOf returns the number of elements in x's set.
func (d *DSU) SizeOf(x int) int { return int(d.size[d.Find(x)]) }
