package homog

import (
	"testing"
	"testing/quick"
)

func TestPointInterval(t *testing.T) {
	iv := Point(7)
	if iv.Lo != 7 || iv.Hi != 7 {
		t.Fatalf("Point(7) = %v", iv)
	}
	if iv.Range() != 0 {
		t.Fatalf("Point range = %d", iv.Range())
	}
	if iv.IsEmpty() {
		t.Fatal("point interval is empty")
	}
}

func TestEmptyIdentity(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() {
		t.Fatal("Empty() is not empty")
	}
	if e.Range() != 0 {
		t.Fatalf("empty range = %d", e.Range())
	}
	err := quick.Check(func(lo, hi uint8) bool {
		iv := Interval{Lo: min(lo, hi), Hi: max(lo, hi)}
		return e.Union(iv) == iv && iv.Union(e) == iv
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// arb builds a non-empty interval from two arbitrary bytes.
func arb(a, b uint8) Interval {
	if a > b {
		a, b = b, a
	}
	return Interval{Lo: a, Hi: b}
}

func TestUnionCommutativeAssociativeIdempotent(t *testing.T) {
	err := quick.Check(func(a1, a2, b1, b2, c1, c2 uint8) bool {
		a, b, c := arb(a1, a2), arb(b1, b2), arb(c1, c2)
		if a.Union(b) != b.Union(a) {
			return false
		}
		if a.Union(b).Union(c) != a.Union(b.Union(c)) {
			return false
		}
		return a.Union(a) == a
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnionMonotoneRange(t *testing.T) {
	err := quick.Check(func(a1, a2, b1, b2 uint8) bool {
		a, b := arb(a1, a2), arb(b1, b2)
		u := a.Union(b)
		return u.Range() >= a.Range() && u.Range() >= b.Range()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// contains reports whether intensity v lies in iv.
func contains(iv Interval, v uint8) bool { return v >= iv.Lo && v <= iv.Hi }

func TestUnionContainsOperands(t *testing.T) {
	err := quick.Check(func(a1, a2, b1, b2, x uint8) bool {
		a, b := arb(a1, a2), arb(b1, b2)
		u := a.Union(b)
		if contains(a, x) && !contains(u, x) {
			return false
		}
		if contains(b, x) && !contains(u, x) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRange(t *testing.T) {
	cases := []struct {
		iv   Interval
		want int
	}{
		{Interval{0, 255}, 255},
		{Interval{10, 10}, 0},
		{Interval{100, 110}, 10},
		{Empty(), 0},
	}
	for _, c := range cases {
		if got := c.iv.Range(); got != c.want {
			t.Errorf("%v.Range() = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	if s := (Interval{3, 9}).String(); s != "[3,9]" {
		t.Errorf("String = %q", s)
	}
	if s := Empty().String(); s != "[empty]" {
		t.Errorf("empty String = %q", s)
	}
}
