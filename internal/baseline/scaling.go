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
	a := core.ScaleMatrix(p, p.X0)
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
		a = core.ScaleMatrix(p, val)
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
// diagonal problem (scale.System under the additive response). Unlike the
// multiplicative baselines this solves the paper's actual quadratic
// objective — a fixed point of the sweep satisfies the full KKT system —
// just by cheaper, linearized sweeps than SEA's exact equilibrations, so it
// needs more of them on hard instances. Every constraint kind — fixed,
// elastic, balanced and interval totals — is supported over both storages.
func SolveISP(ctx context.Context, p *core.DiagonalProblem, opts *core.Options) (*core.Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: ISP: %w", err)
	}
	return solveDual(ctx, p, new(core.DualSystem).Build(p, scale.Additive), opts)
}

// ErrDomain is returned when the problem's data lies outside the entropy
// objective's domain: a negative prior entry, or a positive lower bound over
// a zero prior cell (the KL term is +∞ there). Callers in pkg/sea wrap it in
// ErrInvalidProblem.
var ErrDomain = errors.New("entropy: problem outside the KL domain")

// SolveEntropy solves the KL/entropy objective family as a registry
// solver: minimize the weighted generalized Kullback–Leibler divergence to
// the prior,
//
//	Σ_ij γ_ij (x_ij·ln(x_ij/x⁰_ij) − x_ij + x⁰_ij)  (+ elastic totals terms)
//
// subject to the same fixed, elastic, balanced or interval totals and box
// bounds as the quadratic family, over dense or CSR storage. This is
// Oikonomou's "most likely matrix" model; with fixed totals, a positive
// prior and no binding bounds its solution is the biproportional
// (RAS/Sinkhorn) limit characterized by Aas.
//
// The method is generalized iterative scaling, the multiplicative sibling of
// SolveISP: stationarity of the Lagrangian in x gives the exponential
// response x_ij = clamp(x⁰_ij·e^{(λ_i+μ_j)/γ_ij}, l_ij, u_ij), and
// scale.System ascends the smooth concave dual by exact block-coordinate
// sweeps. The elastic totals keep their quadratic penalties, so their dual
// relations s_i = s⁰_i − λ_i/(2α_i) carry over from the quadratic family.
// The Solution's Objective is the KL value (ObjectiveKind =
// ObjectiveEntropy) and its DualValue is NaN.
//
// Options supply Epsilon (absolute residual tolerance), MaxIterations, Mu0
// (dual warm start of the column multipliers) and Trace; cancellation is
// observed between sweeps. Procs is ignored: sweeps are serial and
// bit-identical at any setting.
func SolveEntropy(ctx context.Context, p *core.DiagonalProblem, opts *core.Options) (*core.Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sys, err := entropySystem(p)
	if err != nil {
		return nil, err
	}
	return solveDual(ctx, p, sys, opts)
}

// entropySystem builds the exponential system of p after checking the KL
// domain: the prior must be nonnegative, positive lower bounds need
// positive prior cells, and a zero-support row or column cannot meet a
// strictly positive required total (its entries are pinned at zero by the
// KL term).
func entropySystem(p *core.DiagonalProblem) (*scale.System, error) {
	for k, v := range p.X0 {
		if v < 0 {
			return nil, fmt.Errorf("%w: X0[%d] = %g < 0 (the KL divergence needs a nonnegative prior)", ErrDomain, k, v)
		}
		if v == 0 && p.Lower != nil && p.Lower[k] > 0 {
			return nil, fmt.Errorf("%w: Lower[%d] = %g > 0 over a zero prior cell (KL pins it at 0)", ErrDomain, k, p.Lower[k])
		}
	}
	sys := new(core.DualSystem).Build(p, scale.Exponential)
	g := &sys.A
	rowHasMass := make([]bool, p.M)
	colHasMass := make([]bool, p.N)
	for i := 0; i < p.M; i++ {
		lo, hi := g.Row(i)
		for k := lo; k < hi; k++ {
			if p.X0[k] > 0 {
				rowHasMass[i] = true
				colHasMass[g.Col(i, k)] = true
			}
		}
	}
	need := func(fixed, interval []float64, i int) float64 {
		switch p.Kind {
		case core.FixedTotals:
			return fixed[i]
		case core.IntervalTotals:
			return interval[i]
		}
		return 0
	}
	for i := 0; i < p.M; i++ {
		if !rowHasMass[i] && need(p.S0, p.SLo, i) > 0 {
			return nil, fmt.Errorf("%w: row %d has zero prior support but requires total %g under the entropy objective", core.ErrInfeasible, i, need(p.S0, p.SLo, i))
		}
	}
	for j := 0; j < p.N; j++ {
		if !colHasMass[j] && need(p.D0, p.DLo, j) > 0 {
			return nil, fmt.Errorf("%w: column %d has zero prior support but requires total %g under the entropy objective", core.ErrInfeasible, j, need(p.D0, p.DLo, j))
		}
	}
	return sys, nil
}

// solveDual runs a dual-scaling system as a solver: one sweep per Run call
// (the duals persist across calls, so this is the same iteration with a
// cancellation check between sweeps) from zero row duals and the Mu0
// column warm start, until the staggered residual reaches Epsilon. Every
// sweep is traced under the response's solver name.
func solveDual(ctx context.Context, p *core.DiagonalProblem, sys *scale.System, opts *core.Options) (*core.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := fillOpts(opts)
	name, label := "isp", "ISP"
	if sys.Response == scale.Exponential {
		name, label = "entropy", "entropy"
	}
	lambda := make([]float64, p.M)
	mu := make([]float64, p.N)
	if o.Mu0 != nil {
		copy(mu, o.Mu0)
	}
	colSum := make([]float64, p.N)
	colASum := make([]float64, p.N)
	nnz := int64(sys.A.Nnz())
	var res scale.Result
	base := 0
	observe := func(iter int, residual float64) {
		trace.Sweep(o.Trace, name, base+iter, residual, 2*nnz)
	}
	for base = 0; base < o.MaxIterations; base++ {
		res = sys.Run(lambda, mu, 1, o.Epsilon, colSum, colASum, observe)
		res.Iterations = base + 1
		if res.Converged {
			break
		}
		if err := ctx.Err(); err != nil {
			sol := dualSolution(p, sys, lambda, mu, res)
			sol.Status = core.StatusCancelled
			return sol, err
		}
	}
	sol := dualSolution(p, sys, lambda, mu, res)
	if !res.Converged {
		return sol, fmt.Errorf("%w: %s after %d sweeps (residual %g)", core.ErrNotConverged, label, res.Iterations, res.Residual)
	}
	return sol, nil
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
	a := core.ScaleMatrix(p, val)
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

// dualSolution packages a dual-scaling system's duals as a full Solution:
// the primal is x(λ,μ), the totals follow each kind's dual relations (the
// elastic ones are shared by both objective families, interval totals are
// the attained sums), and the objective is the response's family. ISP's
// multipliers live in SEA's convention, so its dual value is the true
// ζ(λ,μ); the entropy dual value is not computed.
func dualSolution(p *core.DiagonalProblem, sys *scale.System, lambda, mu []float64, res scale.Result) *core.Solution {
	x := make([]float64, len(p.X0))
	s := make([]float64, p.M)
	d := make([]float64, p.N)
	rowSum := make([]float64, p.M)
	colSum := make([]float64, p.N)
	worst := sys.Eval(lambda, mu, x, rowSum, colSum)
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
	case core.IntervalTotals:
		copy(s, rowSum)
		copy(d, colSum)
	}
	sol := &core.Solution{
		X: x, S: s, D: d,
		Lambda: mat.Clone(lambda), Mu: mat.Clone(mu),
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Residual:   worst,
	}
	if sys.Response == scale.Exponential {
		sol.Objective = p.KLObjective(x, s, d)
		sol.ObjectiveKind = core.ObjectiveEntropy
		sol.DualValue = math.NaN()
	} else {
		sol.Objective = p.Objective(x, s, d)
		sol.DualValue = core.DualValue(p, lambda, mu)
	}
	if res.Converged {
		sol.Status = core.StatusConverged
	} else {
		sol.Status = core.StatusMaxIterations
	}
	return sol
}
