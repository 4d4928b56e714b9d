// Package scale implements diagonal matrix-scaling procedures over dense
// and CSR storage: Sinkhorn–Knopp biproportional balancing, the
// power-of-two rounding Pow2Near behind the preconditioning stage's exact
// rescaling, and System, the one dual-scaling engine of the diagonal constrained matrix problem.
// System ascends the problem's dual one row or column equation at a time
// under either of two cell responses: the additive one of the quadratic
// objective (the iterative scaling procedure, ISP) and the exponential one
// of the entropy/KL objective (generalized iterative scaling), over fixed,
// elastic, balanced or interval totals.
//
// The package is the computational substrate of two consumers:
//
//   - the core solver's Options.Precondition stage, which uses ISP to
//     warm-start the SEA dual before the expensive equilibration sweeps
//     begin; and
//   - the "sinkhorn" (alias "ras"), "isp" and "entropy" registry solvers
//     in pkg/sea (internal/baseline), which run the procedures to
//     convergence as solvers in their own right.
//
// scale deliberately sits below internal/core in the layering (core imports
// scale, never the reverse), so everything here speaks plain slices plus an
// optional CSR skeleton.
package scale

import (
	"errors"
	"fmt"
	"math"
)

// ErrStructure is returned when a scaling procedure cannot possibly reach
// its targets because of the support's zero structure — a zero row or
// column with a positive target total (the infeasible-RAS situation of
// Mohr, Crown and Polenske).
var ErrStructure = errors.New("scale: zero row/column in support with positive target")

// ErrNotFinite is returned when matrix or target data contains NaN or ±Inf
// entries. Callers in pkg/sea wrap it in ErrInvalidProblem.
var ErrNotFinite = errors.New("scale: non-finite entry")

// Matrix is a read-only view of an m×n array in dense row-major or CSR
// storage. A nil RowPtr means dense: Val has length M·N and cell (i,j) is
// Val[i·N+j]. With RowPtr/ColIdx set, Val has length Nnz and row i occupies
// Val[RowPtr[i]:RowPtr[i+1]], with ColIdx giving each stored position's
// column. The view never owns or mutates its slices.
type Matrix struct {
	M, N   int
	Val    []float64
	RowPtr []int
	ColIdx []int32
}

// Dense wraps a dense row-major array.
func Dense(m, n int, val []float64) Matrix { return Matrix{M: m, N: n, Val: val} }

// CSR wraps a CSR array with the given skeleton.
func CSR(m, n int, val []float64, rowPtr []int, colIdx []int32) Matrix {
	return Matrix{M: m, N: n, Val: val, RowPtr: rowPtr, ColIdx: colIdx}
}

// Nnz returns the stored-cell count.
func (a *Matrix) Nnz() int {
	if a.RowPtr != nil {
		return a.RowPtr[a.M]
	}
	return a.M * a.N
}

// Row returns row i's index span into Val.
func (a *Matrix) Row(i int) (lo, hi int) {
	if a.RowPtr != nil {
		return a.RowPtr[i], a.RowPtr[i+1]
	}
	return i * a.N, (i + 1) * a.N
}

// Col returns the column of stored position k within row i's span.
func (a *Matrix) Col(i, k int) int {
	if a.ColIdx != nil {
		return int(a.ColIdx[k])
	}
	return k - i*a.N
}

// Validate checks the view's structural consistency and rejects non-finite
// entries. The CSR skeleton itself is assumed already validated by the
// owner (core.Pattern.Validate); only lengths are rechecked here.
func (a *Matrix) Validate() error {
	if a.M <= 0 || a.N <= 0 {
		return fmt.Errorf("scale: invalid dimensions %d×%d", a.M, a.N)
	}
	if a.RowPtr != nil {
		if len(a.RowPtr) != a.M+1 {
			return fmt.Errorf("scale: len(RowPtr) = %d, want %d", len(a.RowPtr), a.M+1)
		}
		if len(a.ColIdx) != a.RowPtr[a.M] {
			return fmt.Errorf("scale: len(ColIdx) = %d, want %d", len(a.ColIdx), a.RowPtr[a.M])
		}
	}
	if want := a.Nnz(); len(a.Val) != want {
		return fmt.Errorf("scale: len(Val) = %d, want %d", len(a.Val), want)
	}
	for k, v := range a.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: Val[%d] = %v", ErrNotFinite, k, v)
		}
	}
	return nil
}

// RowSums accumulates Σ_j a_ij into dst (length M).
func (a *Matrix) RowSums(dst []float64) {
	for i := 0; i < a.M; i++ {
		lo, hi := a.Row(i)
		var s float64
		for k := lo; k < hi; k++ {
			s += a.Val[k]
		}
		dst[i] = s
	}
}

// ColSums accumulates Σ_i a_ij into dst (length N).
func (a *Matrix) ColSums(dst []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.M; i++ {
		lo, hi := a.Row(i)
		for k := lo; k < hi; k++ {
			dst[a.Col(i, k)] += a.Val[k]
		}
	}
}

// Result reports a scaling procedure's outcome.
type Result struct {
	// Iterations is the number of full row+column sweeps performed.
	Iterations int
	// Residual is the final convergence measure (procedure-specific; see
	// Sinkhorn and System.Run).
	Residual float64
	// Converged reports whether Residual reached the tolerance.
	Converged bool
	// Exact reports Nathanson-style finite termination: the residual hit
	// exactly zero in floating point, so every later sweep is the identity
	// and the limit was attained in finitely many iterations (rank-one
	// priors and block-separable supports terminate this way).
	Exact bool
	// ExactIteration is the sweep on which Exact was detected (0 if not).
	ExactIteration int
	// Stalled reports that one of System.Run's exact stall windows ended
	// in this call without improving the residual (see System.Run).
	Stalled bool
}

// Pow2Near returns the power of two nearest to x in log scale (the exact
// scaling factors used by the preconditioning stage: multiplying or
// dividing by the result is exact in floating point, barring overflow and
// subnormal underflow). Non-positive and non-finite inputs return 1.
func Pow2Near(x float64) float64 {
	if !(x > 0) || math.IsInf(x, 1) {
		return 1
	}
	frac, exp := math.Frexp(x) // x = frac·2^exp, frac ∈ [0.5, 1)
	if frac > 0.70710678118654752440 {
		exp++ // closer (geometrically) to 2^exp than to 2^(exp−1)
	}
	return math.Ldexp(1, exp-1)
}
