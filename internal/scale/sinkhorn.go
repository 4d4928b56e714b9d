package scale

import (
	"fmt"
	"math"
)

// SinkhornOptions parameterizes a Sinkhorn run. The zero value selects the
// documented defaults.
type SinkhornOptions struct {
	// Tol is the convergence tolerance on the relative row-total residual
	// (column totals hold exactly after each column step). Default 1e-8.
	Tol float64
	// MaxIters caps the number of full row+column sweeps. Default 1000.
	MaxIters int
	// Observe, when non-nil, receives every sweep's index and residual —
	// the hook the registry solver uses to forward per-sweep progress to
	// the trace.Observer machinery.
	Observe func(iter int, residual float64)
	// Stop, when non-nil, is polled after every sweep; returning true
	// aborts the iteration with the current factors and a non-converged
	// Result (how the registry solver threads context cancellation into
	// the loop).
	Stop func() bool
}

func (o SinkhornOptions) withDefaults() SinkhornOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 1000
	}
	return o
}

// Sinkhorn computes positive diagonal factors u (length m) and v (length n)
// such that diag(u)·A·diag(v) has row sums r and column sums c — the
// Sinkhorn–Knopp / biproportional balancing iteration, over dense or CSR
// storage. A must be elementwise nonnegative and the targets nonnegative
// with Σr = Σc for exact convergence (the iteration still runs and reports
// its residual otherwise).
//
// u and v supply the factor storage (reused across calls for pooling);
// either may be nil to allocate. Rows and columns with an all-zero support
// get factor 1 when their target is zero and ErrStructure when it is
// positive — scaling cannot move mass into structural zeros.
//
// The residual is max_i |u_i·Σ_j a_ij v_j − r_i| / max(r_i, 1), measured
// after the column step of each sweep. A residual of exactly zero triggers
// Nathanson-style finite-termination detection (Result.Exact): the sweep
// map has reached a fixed point in floating point and every further sweep
// is the identity.
func Sinkhorn(a Matrix, r, c []float64, u, v []float64, opts SinkhornOptions) ([]float64, []float64, Result, error) {
	o := opts.withDefaults()
	var res Result
	if err := a.Validate(); err != nil {
		return u, v, res, err
	}
	if len(r) != a.M || len(c) != a.N {
		return u, v, res, fmt.Errorf("scale: targets are %d/%d, want %d/%d", len(r), len(c), a.M, a.N)
	}
	for i, t := range r {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return u, v, res, fmt.Errorf("%w: row target %d = %v", ErrNotFinite, i, t)
		}
	}
	for j, t := range c {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return u, v, res, fmt.Errorf("%w: column target %d = %v", ErrNotFinite, j, t)
		}
	}
	for k, x := range a.Val {
		if x < 0 {
			return u, v, res, fmt.Errorf("scale: negative entry Val[%d] = %g (Sinkhorn needs a nonnegative matrix)", k, x)
		}
	}
	u = resize(u, a.M)
	v = resize(v, a.N)
	for i := range u {
		u[i] = 1
	}
	for j := range v {
		v[j] = 1
	}

	// Structural feasibility: a zero row/column of the support cannot meet a
	// positive target by scaling.
	rowSum := make([]float64, a.M)
	colSum := make([]float64, a.N)
	a.RowSums(rowSum)
	a.ColSums(colSum)
	for i, s := range rowSum {
		if s == 0 && r[i] > 0 {
			return u, v, res, fmt.Errorf("%w (row %d)", ErrStructure, i)
		}
	}
	for j, s := range colSum {
		if s == 0 && c[j] > 0 {
			return u, v, res, fmt.Errorf("%w (column %d)", ErrStructure, j)
		}
	}

	for t := 1; t <= o.MaxIters; t++ {
		res.Iterations = t
		// Row step: u_i ← r_i / Σ_j a_ij v_j.
		for i := 0; i < a.M; i++ {
			lo, hi := a.Row(i)
			var s float64
			for k := lo; k < hi; k++ {
				s += a.Val[k] * v[a.Col(i, k)]
			}
			if s > 0 {
				u[i] = r[i] / s
			}
		}
		// Column step: v_j ← c_j / Σ_i u_i a_ij, accumulated row-major.
		for j := range colSum {
			colSum[j] = 0
		}
		for i := 0; i < a.M; i++ {
			lo, hi := a.Row(i)
			for k := lo; k < hi; k++ {
				colSum[a.Col(i, k)] += u[i] * a.Val[k]
			}
		}
		for j := 0; j < a.N; j++ {
			if colSum[j] > 0 {
				v[j] = c[j] / colSum[j]
			}
		}
		// Row residual at the new factors (columns are exact by
		// construction after the column step).
		var worst float64
		for i := 0; i < a.M; i++ {
			lo, hi := a.Row(i)
			var s float64
			for k := lo; k < hi; k++ {
				s += a.Val[k] * v[a.Col(i, k)]
			}
			d := math.Abs(u[i]*s - r[i])
			if r[i] > 1 {
				d /= r[i]
			}
			if d > worst || math.IsNaN(d) { // a NaN residual must never pass
				worst = d
			}
		}
		res.Residual = worst
		if o.Observe != nil {
			o.Observe(t, worst)
		}
		if worst == 0 && !res.Exact {
			res.Exact = true
			res.ExactIteration = t
		}
		if worst <= o.Tol {
			res.Converged = true
			return u, v, res, nil
		}
		if o.Stop != nil && o.Stop() {
			return u, v, res, nil
		}
	}
	return u, v, res, nil
}

// resize returns buf with length n, reallocating only when capacity is
// short.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
