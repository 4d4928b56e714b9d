// Package mat provides the small dense linear-algebra substrate needed by
// the splitting equilibration algorithm: vectors and symmetric weight
// matrices (the A, B and G matrices of the constrained matrix problem).
//
// Weight matrices come in three physical representations: Diagonal (the
// diagonal problems of the paper's Section 4), DenseSym (the fully dense
// variance–covariance-style matrices of Section 5, up to 14400×14400), and
// ImplicitSym (a seeded, storage-free dense matrix for experiments whose G
// would not fit in memory). All satisfy the Weight interface.
package mat

import "math"

// Sum returns the sum of the elements of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// Dot returns the inner product of xs and ys, which must have equal length.
func Dot(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range xs {
		s += v * ys[i]
	}
	return s
}

// AXPY computes dst[i] += a*x[i] for all i.
func AXPY(a float64, x, dst []float64) {
	if len(x) != len(dst) {
		panic("mat: AXPY length mismatch")
	}
	for i, v := range x {
		dst[i] += a * v
	}
}

// MaxAbs returns max_i |xs[i]|, or 0 for an empty slice. A NaN element
// makes it NaN, so a residual over one passes no tolerance.
func MaxAbs(xs []float64) float64 {
	var m float64
	for _, v := range xs {
		if a := math.Abs(v); a > m || a != a {
			m = a
		}
	}
	return m
}

// MaxAbsDiff returns max_i |xs[i]-ys[i]|, NaN if any difference is NaN.
// The slices must have equal length.
func MaxAbsDiff(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("mat: MaxAbsDiff length mismatch")
	}
	var m float64
	for i, v := range xs {
		if a := math.Abs(v - ys[i]); a > m || a != a {
			m = a
		}
	}
	return m
}

// Fill sets every element of xs to v.
func Fill(xs []float64, v float64) {
	for i := range xs {
		xs[i] = v
	}
}

// Scale multiplies every element of xs by a.
func Scale(a float64, xs []float64) {
	for i := range xs {
		xs[i] *= a
	}
}

// Clone returns a fresh copy of xs.
func Clone(xs []float64) []float64 {
	ys := make([]float64, len(xs))
	copy(ys, xs)
	return ys
}

// AllNonNegative reports whether every element of xs is >= 0.
func AllNonNegative(xs []float64) bool {
	for _, v := range xs {
		if v < 0 {
			return false
		}
	}
	return true
}
