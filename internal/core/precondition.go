package core

import (
	"context"
	"math"
	"runtime"
	"time"

	"sea/internal/scale"
)

// precondState owns the preconditioning stage's working memory: the scaled
// problem's data arrays, the warm-start procedure's scratch, and the
// unscaling factors for the solve that follows. It lives on the Arena when
// one is attached, so steady-state preconditioned solves reuse every buffer.
//
// The stage has two independent effects, selected by Options.Precondition:
//
//  1. Exact rescaling (all modes). The problem's mass data (X0, totals,
//     bounds) is divided by a power-of-two σ and its weight data (Γ, α, β)
//     multiplied by a power-of-two τ, both chosen to center the data's
//     magnitude near 1. No two-sided diagonal scaling can preserve the
//     unit-coefficient transportation constraints, so these two global
//     scalars are the ONLY exact data scalings available — and because
//     they are powers of two, every scaled entry, every arithmetic step of
//     the solve, and every unscaled output is bit-for-bit a relabeling of
//     the unpreconditioned computation. Tolerances move with the data: ε
//     and the multiplier bound are rescaled by the same exact factors
//     (RelBalance's relative residual is unitless and keeps ε, at the cost
//     of its tiny-denominator guard |s̃| > 1e-12 testing the scaled supply
//     — the one documented tolerance wart).
//
//  2. Dual warm start (PrecondISP). Scaling alone cannot cut iteration
//     counts — dual block-coordinate ascent is invariant under it — so the
//     iteration win comes from estimating the column multipliers μ⁰ on the
//     scaled data and handing them to the solver via Mu0. SEA's first row
//     phase then derives the matching λ exactly. ISP runs clamped additive
//     Gauss–Seidel sweeps on the true KKT system (see scale.System). The
//     warm start changes the trajectory (that is the point) but not the
//     fixed points: the preconditioned solution satisfies the original KKT
//     system to the solver's tolerance. A caller's own Mu0 replaces the
//     estimate: the stage only rescales it.
type precondState struct {
	// Scaled problem storage (prob's slices point into these).
	prob  DiagonalProblem
	x0    []float64
	gamma []float64
	s0    []float64
	d0    []float64
	alpha []float64
	beta  []float64
	upper []float64
	lower []float64
	slo   []float64
	shi   []float64
	dlo   []float64
	dhi   []float64

	// Warm-start scratch. dual keeps the ISP stage's system and its column
	// brackets across solves (Build resets its escalation state, so every
	// solve runs the cold trajectory); colSum/colASum are its column-pass
	// accumulators.
	mu0     []float64
	lambda0 []float64
	dual    DualSystem
	colSum  []float64
	colASum []float64

	// Unscaling factors and bookkeeping for the current solve: sweeps is
	// the warm start's sweep count.
	sigma     float64
	tau       float64
	criterion Criterion
	ns        int64
	sweeps    int
}

// apply builds the scaled problem and (for the warm-starting modes) the μ⁰
// estimate, mutating o in place — o is already the solver's private
// WithDefaults copy. It returns the problem the solve should run on, or
// ctx's error when ctx ends during the ISP stage.
func (ps *precondState) apply(ctx context.Context, p *DiagonalProblem, o *Options) (*DiagonalProblem, error) {
	start := time.Now()
	ps.sweeps = 0
	ps.sigma = massScale(p)
	ps.tau = weightScale(p)
	ps.criterion = o.Criterion
	sp := ps.scaleProblem(p)

	// Tolerances move with the data, by exact power-of-two factors. ε is in
	// mass units for MaxAbsDelta (|Δx|) and DualGradient (constraint
	// residual); RelBalance is unitless. The multiplier bound is in
	// multiplier units (·τ/σ). The ISP stage stops on its absolute residual;
	// under RelBalance its tolerance is ε times the smallest row total, so
	// the estimate it hands SEA already passes the relative test.
	if o.Criterion != RelBalance {
		o.Epsilon /= ps.sigma
	}
	ispTol := o.Epsilon
	if o.Criterion == RelBalance {
		ispTol = relBalanceTol(sp.S0, o.Epsilon)
	}
	if o.BoundMultipliers {
		o.MultiplierBound *= ps.tau / ps.sigma
	}
	switch {
	case o.Mu0 != nil:
		// The caller's warm start wins over the stage's estimates. It is in
		// original units; rescale it.
		ps.mu0 = resizeF(ps.mu0, len(o.Mu0))
		f := ps.tau / ps.sigma
		for j, v := range o.Mu0 {
			ps.mu0[j] = v * f
		}
		o.Mu0 = ps.mu0
	case o.Precondition == PrecondISP:
		ok, err := ps.ispWarmStart(ctx, sp, ispTol, o.MaxIterations)
		if err != nil {
			return nil, err
		}
		if ok {
			o.Mu0 = ps.mu0
		}
	}
	ps.ns = time.Since(start).Nanoseconds()
	return sp, nil
}

// unscale converts the scaled solve's Solution back to original units in
// place. Every factor is a power of two, so the result is bit-for-bit the
// unpreconditioned solution (PrecondScale) or an exact relabeling of the
// warm-started trajectory's limit.
func (ps *precondState) unscale(sol *Solution) {
	σ, τ := ps.sigma, ps.tau
	if σ != 1 {
		scaleBy(sol.X, σ)
		scaleBy(sol.S, σ)
		scaleBy(sol.D, σ)
		if ps.criterion != RelBalance {
			sol.Residual *= σ
		}
	}
	if f := σ / τ; f != 1 {
		scaleBy(sol.Lambda, f)
		scaleBy(sol.Mu, f)
	}
	// σ²/τ is applied as one exponent: σ² alone can leave the float range
	// even when the quotient lies inside it.
	if x := 2*math.Ilogb(σ) - math.Ilogb(τ); x != 0 {
		sol.Objective = math.Ldexp(sol.Objective, x)
		sol.DualValue = math.Ldexp(sol.DualValue, x)
	}
	sol.PrecondNs = ps.ns
	sol.PrecondSweeps = ps.sweeps
}

func scaleBy(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

// massScale picks the power-of-two σ that centers the problem's mass data
// (prior cells, totals, finite bounds) near 1: the largest magnitude is the
// robust, deterministic choice for taming overflow on wide-range data.
func massScale(p *DiagonalProblem) float64 {
	var mx float64
	scan := func(xs []float64) {
		for _, v := range xs {
			if a := math.Abs(v); a > mx && !math.IsInf(a, 1) {
				mx = a
			}
		}
	}
	scan(p.X0)
	scan(p.S0)
	scan(p.D0)
	scan(p.SLo)
	scan(p.SHi)
	scan(p.DLo)
	scan(p.DHi)
	scan(p.Lower)
	scan(p.Upper)
	return scale.Pow2Near(mx)
}

// weightScale picks the power-of-two 1/τ at the geometric midpoint of the
// Γ range, so Γ·τ straddles 1.
func weightScale(p *DiagonalProblem) float64 {
	gmin, gmax := math.Inf(1), 0.0
	for _, g := range p.Gamma {
		if g < gmin {
			gmin = g
		}
		if g > gmax {
			gmax = g
		}
	}
	return 1 / scale.Pow2Near(math.Sqrt(gmin*gmax))
}

// scaleProblem fills ps.prob with the σ/τ-scaled copy of p. The Pattern
// pointer is shared verbatim so an arena-adopted diagState keeps its CSC
// view warm across preconditioned solves.
func (ps *precondState) scaleProblem(p *DiagonalProblem) *DiagonalProblem {
	σ, τ := ps.sigma, ps.tau
	div := func(dst *[]float64, src []float64) []float64 {
		if src == nil {
			return nil
		}
		*dst = resizeF(*dst, len(src))
		for i, v := range src {
			(*dst)[i] = v / σ
		}
		return *dst
	}
	mul := func(dst *[]float64, src []float64) []float64 {
		if src == nil {
			return nil
		}
		*dst = resizeF(*dst, len(src))
		for i, v := range src {
			(*dst)[i] = v * τ
		}
		return *dst
	}
	ps.prob = DiagonalProblem{
		M: p.M, N: p.N, Kind: p.Kind, Pattern: p.Pattern,
		X0:    div(&ps.x0, p.X0),
		Gamma: mul(&ps.gamma, p.Gamma),
		S0:    div(&ps.s0, p.S0),
		D0:    div(&ps.d0, p.D0),
		Alpha: mul(&ps.alpha, p.Alpha),
		Beta:  mul(&ps.beta, p.Beta),
		Upper: div(&ps.upper, p.Upper),
		Lower: div(&ps.lower, p.Lower),
		SLo:   div(&ps.slo, p.SLo),
		SHi:   div(&ps.shi, p.SHi),
		DLo:   div(&ps.dlo, p.DLo),
		DHi:   div(&ps.dhi, p.DHi),
	}
	return &ps.prob
}

// ScaleMatrix wraps per-cell values in p's storage layout (dense, or CSR
// over p.Pattern) as a scale.Matrix.
func ScaleMatrix(p *DiagonalProblem, val []float64) scale.Matrix {
	if p.Pattern != nil {
		return scale.CSR(p.M, p.N, val, p.Pattern.RowPtr, p.Pattern.ColIdx)
	}
	return scale.Dense(p.M, p.N, val)
}

// DualSystem is a diagonal problem's dual-scaling system (see scale.System)
// together with the derived arrays it points into: the additive response's
// slopes 1/(2γ) and the elastic terms e = 1/(2α), f = 1/(2β). A long-lived
// DualSystem rebuilds over its own buffers and its System's scratch.
type DualSystem struct {
	System                 scale.System
	coef, rowDiag, colDiag []float64
}

// Build makes d the dual system of p under resp and returns it: the cell
// coefficients (the slopes 1/(2γ) for the additive response, the weights γ
// for the exponential one), the prior and bounds, and each kind's totals.
// The System starts with fresh escalation state (see scale.System.Reuse).
// p is taken as valid.
func (d *DualSystem) Build(p *DiagonalProblem, resp scale.Response) *scale.System {
	coef := p.Gamma
	if resp == scale.Additive {
		coef = halfInv(&d.coef, p.Gamma)
	}
	sys := &d.System
	sys.Reuse(scale.System{Response: resp, A: ScaleMatrix(p, coef), X0: p.X0, Lo: p.Lower, Up: p.Upper})
	switch p.Kind {
	case FixedTotals:
		sys.RowTarget, sys.ColTarget = p.S0, p.D0
	case ElasticTotals:
		sys.RowTarget, sys.ColTarget = p.S0, p.D0
		sys.RowDiag, sys.ColDiag = halfInv(&d.rowDiag, p.Alpha), halfInv(&d.colDiag, p.Beta)
	case Balanced:
		sys.RowTarget, sys.RowDiag, sys.Coupled = p.S0, halfInv(&d.rowDiag, p.Alpha), true
	case IntervalTotals:
		sys.RowLo, sys.RowHi, sys.ColLo, sys.ColHi = p.SLo, p.SHi, p.DLo, p.DHi
	}
	return sys
}

// ispWarmStart runs clamped ISP sweeps on the scaled problem's exact KKT
// system and leaves the column-multiplier estimate in ps.mu0. The sweeps go
// on until the residual reaches tol, a window of exact sweeps stalls
// against the one before it (scale.Result.Stalled), or budget sweeps have
// run. They run one stall window (scale.StallWindow sweeps) per call, with
// ctx checked between calls; chunked runs are bit-identical to one long
// run. It reports false for IntervalTotals, whose SEA iterates stay those
// of pure scaling, or when the system fails validation; preconditioning
// then degrades to pure scaling.
func (ps *precondState) ispWarmStart(ctx context.Context, sp *DiagonalProblem, tol float64, budget int) (bool, error) {
	if sp.Kind == IntervalTotals {
		return false, nil
	}
	sys := ps.dual.Build(sp, scale.Additive)
	if sys.Validate() != nil {
		return false, nil
	}
	ps.lambda0 = zeroed(ps.lambda0, sp.M)
	mu := zeroed(ps.mu0, sp.N)
	ps.mu0 = mu
	ps.colSum = resizeF(ps.colSum, sp.N)
	ps.colASum = resizeF(ps.colASum, sp.N)
	for ps.sweeps < budget {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		runtime.Gosched() // see diagState.run
		res := sys.Run(ps.lambda0, mu, min(scale.StallWindow, budget-ps.sweeps), tol, ps.colSum, ps.colASum, nil)
		ps.sweeps += res.Iterations
		if math.IsNaN(res.Residual) {
			// The duals diverged (an infeasible box): start SEA cold, and
			// let its kernel name the infeasible subproblem.
			clear(mu)
			break
		}
		if res.Converged || res.Stalled {
			break
		}
	}
	return true, nil
}

// relBalanceTol is the ISP stage's absolute tolerance under RelBalance:
// ε·min|s⁰_i| over the rows whose total passes the check's guard
// |s_i| > 1e-12 (diagState.checkConvergence), or ε when none does. The
// check divides by the current totals, which elastic kinds move from s⁰.
func relBalanceTol(s0 []float64, eps float64) float64 {
	smin := math.Inf(1)
	for _, v := range s0 {
		if a := math.Abs(v); a > 1e-12 && a < smin {
			smin = a
		}
	}
	if math.IsInf(smin, 1) {
		return eps
	}
	return eps * smin
}

// halfInv fills dst with 0.5/src (the slopes 1/(2γ), the elastic terms
// e = 1/(2α), f = 1/(2β)).
func halfInv(dst *[]float64, src []float64) []float64 {
	if src == nil {
		return nil
	}
	*dst = resizeF(*dst, len(src))
	for i, v := range src {
		(*dst)[i] = 0.5 / v
	}
	return *dst
}

func zeroed(buf []float64, n int) []float64 {
	buf = resizeF(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
