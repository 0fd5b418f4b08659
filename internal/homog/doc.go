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
// FoldQuads builds a split level from the one below, 8 blocks per uint64,
// and counts the blocks whose range is at most T; RowMinMax folds a pixel
// row.
package homog
