package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sea/internal/core"
	"sea/internal/mat"
	"sea/internal/scale"
	"sea/internal/trace"
)

// ErrRASStructure is returned when biproportional scaling cannot possibly
// converge because the zero pattern of the prior makes the target totals
// unreachable (the infeasible-RAS situation analyzed by Mohr, Crown and
// Polenske (1987)).
var ErrRASStructure = errors.New("baseline: RAS structurally infeasible: a zero row/column has a positive target total")

// SolveSinkhorn runs Sinkhorn–Knopp biproportional balancing — the RAS
// method of Deming and Stephan (1940) — as a registry solver ("sinkhorn",
// alias "ras"): alternately scale rows and columns of the prior until the
// totals are met. It preserves the prior's zero pattern (it cannot move mass
// into zero cells) and solves an entropy objective rather than the paper's
// weighted least squares — it is a baseline, reported at the quadratic
// objective's value for comparison. It runs natively on dense and CSR
// storage and detects Nathanson-style exact finite termination (the sweep
// map reaching a floating-point fixed point, reported via the trace as a
// final zero residual).
//
// The problem must have fixed totals (the caller checks; this function
// re-validates structure only). Options supply Epsilon (the tolerance on
// the relative row residual, see scale.Sinkhorn), MaxIterations and Trace;
// cancellation is observed after every sweep.
//
// When the targets are unreachable on the prior's zero pattern (Mohr, Crown
// and Polenske), the factors diverge — some rows' u_i grow without bound
// while the facing v_j vanish — and would overflow to Inf·0 = NaN cells.
// Once a factor leaves [1/absorbLimit, absorbLimit], the factors are
// absorbed into a working copy of the prior (the classical RAS update of
// the matrix itself) and the sweeps continue from unit factors, so cells
// the limit empties underflow to zero instead. Convergent solves never come
// near the limit.
func SolveSinkhorn(ctx context.Context, p *core.DiagonalProblem, opts *core.Options) (*core.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := fillOpts(opts)
	if p.Kind != core.FixedTotals {
		return nil, fmt.Errorf("baseline: Sinkhorn requires fixed totals, got %v", p.Kind)
	}
	a := problemMatrix(p, p.X0)
	if !mat.AllNonNegative(p.X0) {
		return nil, fmt.Errorf("baseline: Sinkhorn requires a nonnegative prior")
	}

	obs := o.Trace
	ops := int64(2 * a.Nnz())
	u, v := make([]float64, p.M), make([]float64, p.N)
	val := p.X0
	var res scale.Result
	for {
		done := res.Iterations
		var err error
		diverged := false
		u, v, res, err = scale.Sinkhorn(a, p.S0, p.D0, u, v, scale.SinkhornOptions{
			Tol:      o.Epsilon,
			MaxIters: o.MaxIterations - done,
			Observe: func(iter int, residual float64) {
				trace.Sweep(obs, "sinkhorn", done+iter, residual, ops)
			},
			Stop: func() bool {
				diverged = outside(u, absorbLimit) || outside(v, absorbLimit)
				return diverged || ctx.Err() != nil
			},
		})
		if err != nil {
			if errors.Is(err, scale.ErrStructure) {
				return nil, fmt.Errorf("%w (%v)", ErrRASStructure, err)
			}
			return nil, err
		}
		res.Iterations += done
		if !diverged || ctx.Err() != nil || res.Iterations >= o.MaxIterations {
			break
		}
		val = sinkhornX(p, val, u, v)
		a = problemMatrix(p, val)
	}
	sol := scalingSolution(p, nil, nil, res, sinkhornX(p, val, u, v))
	if cerr := ctx.Err(); cerr != nil && !res.Converged {
		sol.Status = core.StatusCancelled
		return sol, cerr
	}
	if !res.Converged {
		return sol, fmt.Errorf("%w: Sinkhorn after %d sweeps (residual %g)", core.ErrNotConverged, res.Iterations, res.Residual)
	}
	return sol, nil
}

// SolveISP runs the iterative scaling procedure as a registry solver:
// clamped additive Gauss–Seidel sweeps on the exact KKT system of the
// diagonal problem (scale.System). Unlike the multiplicative baselines this
// solves the paper's actual quadratic objective — a fixed point of the
// sweep satisfies the full KKT system — just by cheaper, linearized sweeps
// than SEA's exact equilibrations, so it needs more of them on hard
// instances. Fixed, elastic and balanced totals are supported over both
// storages; interval totals are not modeled (the caller rejects them).
func SolveISP(ctx context.Context, p *core.DiagonalProblem, opts *core.Options) (*core.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := fillOpts(opts)
	sys, err := ispSystem(p)
	if err != nil {
		return nil, err
	}
	obs := o.Trace
	lambda := make([]float64, p.M)
	mu := make([]float64, p.N)
	if o.Mu0 != nil {
		copy(mu, o.Mu0)
	}
	colSum := make([]float64, p.N)
	colASum := make([]float64, p.N)
	nnz := int64(sys.A.Nnz())
	var total scale.Result
	base := 0
	observe := func(iter int, residual float64) {
		trace.Sweep(obs, "isp", base+iter, residual, 2*nnz)
	}
	// One Run call per sweep: the duals persist across calls, so this is the
	// same iteration with a cancellation check between sweeps.
	for base = 0; base < o.MaxIterations; base++ {
		res := sys.Run(lambda, mu, 1, o.Epsilon, colSum, colASum, observe)
		total.Iterations = base + 1
		total.Residual = res.Residual
		total.Converged = res.Converged
		if res.Exact && !total.Exact {
			total.Exact = true
			total.ExactIteration = base + 1
		}
		if res.Converged {
			break
		}
		if err := ctx.Err(); err != nil {
			sol := ispSolution(p, sys, lambda, mu, total)
			sol.Status = core.StatusCancelled
			return sol, err
		}
	}
	sol := ispSolution(p, sys, lambda, mu, total)
	if !total.Converged {
		return sol, fmt.Errorf("%w: ISP after %d sweeps (residual %g)", core.ErrNotConverged, total.Iterations, total.Residual)
	}
	return sol, nil
}

// problemMatrix wraps per-cell values in the problem's storage layout.
func problemMatrix(p *core.DiagonalProblem, val []float64) scale.Matrix {
	if p.Pattern != nil {
		return scale.CSR(p.M, p.N, val, p.Pattern.RowPtr, p.Pattern.ColIdx)
	}
	return scale.Dense(p.M, p.N, val)
}

// ispSystem builds the additive KKT system of a diagonal problem.
func ispSystem(p *core.DiagonalProblem) (*scale.System, error) {
	if p.Kind == core.IntervalTotals {
		return nil, fmt.Errorf("baseline: ISP does not model interval totals")
	}
	slopes := make([]float64, len(p.Gamma))
	for k, g := range p.Gamma {
		slopes[k] = 0.5 / g
	}
	sys := &scale.System{
		A:         problemMatrix(p, slopes),
		X0:        p.X0,
		Lo:        p.Lower,
		Up:        p.Upper,
		RowTarget: p.S0,
	}
	halfInv := func(w []float64) []float64 {
		out := make([]float64, len(w))
		for i, v := range w {
			out[i] = 0.5 / v
		}
		return out
	}
	switch p.Kind {
	case core.FixedTotals:
		sys.ColTarget = p.D0
	case core.ElasticTotals:
		sys.ColTarget = p.D0
		sys.RowDiag = halfInv(p.Alpha)
		sys.ColDiag = halfInv(p.Beta)
	case core.Balanced:
		sys.Coupled = true
		sys.RowDiag = halfInv(p.Alpha)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}

// absorbLimit bounds SolveSinkhorn's factors between absorptions.
const absorbLimit = 1e100

// outside reports whether any nonzero factor lies outside [1/limit, limit]
// (a zero factor belongs to a zero target, not to divergence).
func outside(f []float64, limit float64) bool {
	for _, x := range f {
		if x > limit || (x > 0 && x < 1/limit) {
			return true
		}
	}
	return false
}

// sinkhornX materializes the balanced matrix u_i·val_ij·v_j in storage order.
func sinkhornX(p *core.DiagonalProblem, val, u, v []float64) []float64 {
	a := problemMatrix(p, val)
	x := make([]float64, len(val))
	for i := 0; i < a.M; i++ {
		lo, hi := a.Row(i)
		for k := lo; k < hi; k++ {
			x[k] = u[i] * a.Val[k] * v[a.Col(i, k)]
		}
	}
	return x
}

// scalingSolution packages a biproportional result (no dual information).
func scalingSolution(p *core.DiagonalProblem, s, d []float64, res scale.Result, x []float64) *core.Solution {
	if s == nil {
		s = make([]float64, p.M)
		p.RowSums(x, s)
	}
	if d == nil {
		d = make([]float64, p.N)
		p.ColSums(x, d)
	}
	sol := &core.Solution{
		X: x, S: s, D: d,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Residual:   res.Residual,
		Objective:  p.Objective(x, s, d),
		DualValue:  math.NaN(),
	}
	if res.Converged {
		sol.Status = core.StatusConverged
	} else {
		sol.Status = core.StatusMaxIterations
	}
	return sol
}

// ispSolution packages the ISP duals as a full Solution: the primal is
// x(λ,μ), the totals follow the kind's elastic relations, and because ISP's
// multipliers live in the same convention as SEA's, the dual value is the
// true ζ(λ,μ).
func ispSolution(p *core.DiagonalProblem, sys *scale.System, lambda, mu []float64, res scale.Result) *core.Solution {
	x := make([]float64, len(p.X0))
	s := make([]float64, p.M)
	d := make([]float64, p.N)
	worst := sys.Eval(lambda, mu, x, nil, nil)
	switch p.Kind {
	case core.FixedTotals:
		copy(s, p.S0)
		copy(d, p.D0)
	case core.ElasticTotals:
		for i := range s {
			s[i] = p.S0[i] - 0.5/p.Alpha[i]*lambda[i]
		}
		for j := range d {
			d[j] = p.D0[j] - 0.5/p.Beta[j]*mu[j]
		}
	case core.Balanced:
		for i := range s {
			s[i] = p.S0[i] - 0.5/p.Alpha[i]*(lambda[i]+mu[i])
		}
		copy(d, s)
	}
	sol := &core.Solution{
		X: x, S: s, D: d,
		Lambda: mat.Clone(lambda), Mu: mat.Clone(mu),
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Residual:   worst,
		Objective:  p.Objective(x, s, d),
		DualValue:  core.DualValue(p, lambda, mu),
	}
	if res.Converged {
		sol.Status = core.StatusConverged
	} else {
		sol.Status = core.StatusMaxIterations
	}
	return sol
}
