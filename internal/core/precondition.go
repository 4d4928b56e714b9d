package core

import (
	"math"
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
//  2. Dual warm start (PrecondSinkhorn, PrecondISP). Scaling alone cannot
//     cut iteration counts — dual block-coordinate ascent is invariant
//     under it — so the iteration win comes from estimating the column
//     multipliers μ⁰ on the scaled data and handing them to the solver
//     via Mu0. SEA's first row phase then derives the matching λ exactly.
//     ISP runs clamped additive Gauss–Seidel sweeps on the true KKT
//     system (see scale.System); Sinkhorn balances the positive-floored
//     prior and converts the multiplicative column factors to additive
//     multipliers. Warm starts change the trajectory (that is the point)
//     but not the fixed points: the preconditioned solution satisfies the
//     original KKT system to the solver's tolerance.
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
	// accumulators. slopes, colA and colB are the Sinkhorn stage's.
	slopes  []float64
	mu0     []float64
	lambda0 []float64
	colA    []float64
	colB    []float64
	dual    DualSystem
	colSum  []float64
	colASum []float64

	// Unscaling factors and bookkeeping for the current solve.
	sigma     float64
	tau       float64
	criterion Criterion
	ns        int64
}

// apply builds the scaled problem and (for the warm-starting modes) the μ⁰
// estimate, mutating o in place — o is already the solver's private
// withDefaults copy. It returns the problem the solve should run on.
func (ps *precondState) apply(p *DiagonalProblem, o *Options) *DiagonalProblem {
	start := time.Now()
	ps.sigma = massScale(p)
	ps.tau = weightScale(p)
	ps.criterion = o.Criterion
	sp := ps.scaleProblem(p)

	// Tolerances move with the data, by exact power-of-two factors. ε is in
	// mass units for MaxAbsDelta (|Δx|) and DualGradient (constraint
	// residual); RelBalance is unitless. The multiplier bound is in
	// multiplier units (·τ/σ).
	if o.Criterion != RelBalance {
		o.Epsilon /= ps.sigma
	}
	if o.BoundMultipliers {
		o.MultiplierBound *= ps.tau / ps.sigma
	}
	if o.Mu0 != nil {
		// A caller-supplied warm start is in original units; rescale it
		// (and let ISP refine it below).
		ps.mu0 = resizeF(ps.mu0, len(o.Mu0))
		f := ps.tau / ps.sigma
		for j, v := range o.Mu0 {
			ps.mu0[j] = v * f
		}
		o.Mu0 = ps.mu0
	}

	switch o.Precondition {
	case PrecondISP:
		if ps.ispWarmStart(sp, o) {
			o.Mu0 = ps.mu0
		}
	case PrecondSinkhorn:
		if ps.sinkhornWarmStart(sp, o) {
			o.Mu0 = ps.mu0
		}
	}
	ps.ns = time.Since(start).Nanoseconds()
	return sp
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
	if f := σ * σ / τ; f != 1 {
		sol.Objective *= f
		sol.DualValue *= f
	}
	sol.PrecondNs = ps.ns
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
// mirror warm across preconditioned solves.
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

// ispWarmStart runs PrecondSweeps clamped ISP sweeps on the scaled
// problem's exact KKT system and leaves the column-multiplier estimate in
// ps.mu0. It reports false (leaving Options untouched) for IntervalTotals,
// whose SEA iterates stay those of pure scaling, or when the system fails
// validation; preconditioning then degrades to pure scaling.
func (ps *precondState) ispWarmStart(sp *DiagonalProblem, o *Options) bool {
	if sp.Kind == IntervalTotals {
		return false
	}
	sys := ps.dual.Build(sp, scale.Additive)
	if sys.Validate() != nil {
		return false
	}
	ps.lambda0 = zeroed(ps.lambda0, sp.M)
	mu := zeroed(ps.mu0, sp.N)
	if o.Mu0 != nil {
		copy(mu, o.Mu0) // refine the caller's (already rescaled) estimate
	}
	ps.mu0 = mu
	ps.colSum = resizeF(ps.colSum, sp.N)
	ps.colASum = resizeF(ps.colASum, sp.N)
	sys.Run(ps.lambda0, mu, o.PrecondSweeps, o.Epsilon, ps.colSum, ps.colASum, nil)
	return true
}

// sinkhornWarmStart balances the positive-floored scaled prior to the
// scaled totals and converts the multiplicative column factors v_j into
// additive multiplier estimates μ⁰_j ≈ (v_j−1)·colsum⁰_j / Σ_i a_ij: the
// additive column adjustment that moves the same mass the balancing
// factors would. Reports false on structural failure (zero rows/columns
// with positive targets) or kinds without per-side targets.
func (ps *precondState) sinkhornWarmStart(sp *DiagonalProblem, o *Options) bool {
	if sp.Kind == IntervalTotals {
		return false
	}
	nv := len(sp.X0)
	ps.slopes = resizeF(ps.slopes, nv)
	// The balancing matrix is the prior floored to a small positive value
	// (scaled data is O(1), so the floor is absolute).
	const floor = 1e-8
	for k, v := range sp.X0 {
		if v > floor {
			ps.slopes[k] = v
		} else {
			ps.slopes[k] = floor
		}
	}
	a := ScaleMatrix(sp, ps.slopes)
	r := zeroed(ps.lambda0, sp.M)
	for i, v := range sp.S0 {
		if v > 0 {
			r[i] = v
		}
	}
	ps.lambda0 = r
	cSrc := sp.D0
	if sp.Kind == Balanced {
		cSrc = sp.S0
	}
	c := zeroed(ps.colA, sp.N)
	for j, v := range cSrc {
		if v > 0 {
			c[j] = v
		}
	}
	ps.colA = c
	_, v, _, err := scale.Sinkhorn(a, r, c, nil, nil, scale.SinkhornOptions{MaxIters: o.PrecondSweeps})
	if err != nil {
		return false
	}
	// Column sums of the floored prior and of the dual slopes.
	colSum0 := zeroed(ps.colB, sp.N)
	a.ColSums(colSum0)
	ps.colB = colSum0
	mu := zeroed(ps.mu0, sp.N)
	ps.mu0 = mu
	ga := ScaleMatrix(sp, sp.Gamma)
	for i := 0; i < ga.M; i++ {
		lo, hi := ga.Row(i)
		for k := lo; k < hi; k++ {
			mu[ga.Col(i, k)] += 0.5 / ga.Val[k]
		}
	}
	for j := 0; j < sp.N; j++ {
		if mu[j] > 0 {
			mu[j] = (v[j] - 1) * colSum0[j] / mu[j]
		}
	}
	return true
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
