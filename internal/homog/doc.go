// Package homog is the intensity-interval algebra the engines share, and
// the packed min/max helpers the split's level-1 pass reads rows with.
//
// The paper uses the pixel range criterion exclusively: a region is
// homogeneous when the difference between its maximum and minimum pixel
// intensities does not exceed a threshold T. The merge stage's edge weights
// are ranges of region unions, so the whole computation reduces to an
// algebra over closed intensity intervals [Lo, Hi] — which this package
// provides — and the one test Range() ≤ T, which each stage applies to
// the threshold it is given.
package homog
