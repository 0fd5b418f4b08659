// Package homog is the intensity-interval algebra the engines share, and
// the packed min/max helpers that fold the split's blocks and rows.
//
// The paper uses the pixel range criterion exclusively: a region is
// homogeneous when the difference between its maximum and minimum pixel
// intensities does not exceed a threshold T. The merge stage's edge weights
// are ranges of region unions, so the whole computation reduces to an
// algebra over closed intensity intervals [Lo, Hi] — which this package
// provides — and the one test Range() ≤ T, which each stage applies to
// the threshold it is given.
//
// FoldPixelRows and FoldBlockRows build a row of a split level from a row
// pair of the level below, 8 blocks per uint64, and count the blocks
// whose range is at most T: the first from two pixel rows, with one
// byte-lane compare per word pair giving both bounds, the second from two
// rows of blocks' bounds. MinBytes and MaxBytes are that compare, and
// RowMinMax folds a pixel row with it.
package homog
