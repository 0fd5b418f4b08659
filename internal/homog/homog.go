package homog

import "fmt"

// Interval is a closed intensity interval [Lo, Hi]. The zero value is the
// empty interval (Lo > Hi is never constructed; Empty uses Lo=MaxIntensity,
// Hi=0 so that Union with anything yields the other operand — and so that
// the branch-free union `{min(Lo,Lo'), max(Hi,Hi')}` the packed path and
// the arena graph compute is exact even when one operand is Empty).
type Interval struct {
	Lo, Hi uint8
}

// Empty returns the identity element for Union. Its bounds derive from
// MaxIntensity, the constant the packed SWAR path shares, so the scalar
// and word-parallel representations cannot drift.
func Empty() Interval { return Interval{Lo: MaxIntensity, Hi: 0} }

// Point returns the degenerate interval [v, v] — a single pixel's interval.
func Point(v uint8) Interval { return Interval{Lo: v, Hi: v} }

// IsEmpty reports whether the interval contains no intensities.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Union returns the smallest interval containing both operands.
func (iv Interval) Union(other Interval) Interval {
	if iv.IsEmpty() {
		return other
	}
	if other.IsEmpty() {
		return iv
	}
	out := iv
	if other.Lo < out.Lo {
		out.Lo = other.Lo
	}
	if other.Hi > out.Hi {
		out.Hi = other.Hi
	}
	return out
}

// Range returns Hi−Lo, the pixel range. The empty interval has range 0:
// a region with no pixels is vacuously homogeneous.
func (iv Interval) Range() int {
	if iv.IsEmpty() {
		return 0
	}
	return int(iv.Hi) - int(iv.Lo)
}

// String formats the interval for diagnostics.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}
