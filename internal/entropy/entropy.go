// Package entropy solves the KL/entropy objective family of the constrained
// matrix problem: minimize the weighted generalized Kullback–Leibler
// divergence to the prior,
//
//	Σ_ij γ_ij (x_ij·ln(x_ij/x⁰_ij) − x_ij + x⁰_ij)  (+ elastic totals terms)
//
// subject to the same fixed, elastic, balanced or interval row/column totals
// and box bounds as the quadratic family. This is Oikonomou's "most likely
// matrix" model; with fixed totals, a positive prior and no binding bounds
// its solution is the biproportional (RAS/Sinkhorn) limit characterized by
// Aas — which the tests cross-check against.
//
// The method is generalized iterative scaling, the multiplicative sibling of
// internal/scale's additive ISP. Stationarity of the Lagrangian in x gives
// the exponential dual response
//
//	x_ij(λ,μ) = clamp(x⁰_ij · e^{(λ_i+μ_j)/γ_ij}, l_ij, u_ij)
//
// and the dual problem is smooth and concave; block-coordinate ascent
// alternates exact row solves (each λ_i from a monotone one-dimensional
// equation, safeguarded Newton) with batched column passes accumulated
// row-major (no CSC mirror), exactly the ISP sweep structure. The elastic
// totals keep their quadratic penalties, so the elastic dual relations
// s_i = s⁰_i − λ_i/(2α_i) carry over from the quadratic family unchanged.
//
// Every sweep is serial and accumulates in a fixed order, so solutions are
// bit-identical regardless of Options.Procs — the determinism property the
// rest of the repository guarantees comes for free here.
package entropy

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

// ErrDomain is returned when the problem's data lies outside the entropy
// objective's domain: a negative prior entry, or a positive lower bound over
// a zero prior cell (the KL term is +∞ there). Callers in pkg/sea wrap it in
// ErrInvalidProblem.
var ErrDomain = errors.New("entropy: problem outside the KL domain")

// maxExpArg caps the exponent argument (λ_i+μ_j)/γ_ij so the response stays
// finite through the Newton safeguards instead of overflowing to +Inf midway
// through a bracketing phase. e^700 ≈ 1.0e304 leaves headroom for sums.
const maxExpArg = 700

// maxInner caps the safeguarded-Newton iterations spent on one row equation
// or one batched column pass per half-sweep (the ISP budget; exponentials
// resolve in a handful of steps).
const maxInner = 32

// System is the multiplicative dual-scaling view of a diagonal entropy
// problem. G holds the weights γ_ij (the problem's storage layout fixes the
// layout of X0/Lo/Up); the remaining fields mirror scale.System, plus the
// interval-totals mode the additive system does not model.
type System struct {
	G      scale.Matrix
	X0     []float64
	Lo, Up []float64
	// RowTarget/ColTarget and RowDiag/ColDiag: the equation
	// Σ x(λ,μ) + diag·z = target per row/column (diag = 1/(2α) elastic,
	// 0 fixed). Coupled marks the Balanced kind (shared totals, the elastic
	// term e_i(λ_i+μ_i) on both sides).
	RowTarget, ColTarget []float64
	RowDiag, ColDiag     []float64
	Coupled              bool
	// Interval mode: RowTarget/ColTarget are ignored in favour of the
	// bounds, and each equation's target side is chosen by complementarity
	// (sum at z = 0 inside the interval ⇒ multiplier 0).
	Interval                   bool
	RowLo, RowHi, ColLo, ColHi []float64

	// Scratch for the batched column half-sweep.
	colSum, colSlope, colSum0 []float64
	bracketLo, bracketHi      []float64
	colTargetBuf, colDiagBuf  []float64
	colActive                 []bool
}

// respAt evaluates x_k(z) = clamp(x⁰_k·e^{z/γ_k}, l_k, u_k) and its slope
// dx/dz = x/γ (zero when clamped or overflowed).
func (s *System) respAt(k int, z float64) (x, slope float64) {
	g := s.G.Val[k]
	lo := 0.0
	if s.Lo != nil {
		lo = s.Lo[k]
	}
	e := z / g
	if e > maxExpArg {
		e = maxExpArg
	}
	t := s.X0[k] * math.Exp(e)
	if t <= lo {
		return lo, 0
	}
	if s.Up != nil && t >= s.Up[k] {
		return s.Up[k], 0
	}
	if math.IsInf(t, 1) {
		return t, 0
	}
	return t, t / g
}

// newtonStep advances one safeguarded Newton step on a monotone increasing
// equation g(z) = 0 evaluated at z (the scale.System safeguard: tighten the
// bracket on the current sign's side, fall back to bisection when the Newton
// candidate leaves the open bracket or the slope vanishes, expand a
// one-sided bracket geometrically). ok = false means the iteration cannot
// move any further.
func newtonStep(z, g, slope float64, blo, bhi, step *float64) (next float64, ok bool) {
	if g > 0 {
		*bhi = z
	} else {
		*blo = z
	}
	if slope > 0 && !math.IsInf(g, 0) {
		next = z - g/slope
		if next > *blo && next < *bhi {
			return next, true
		}
	}
	if !math.IsInf(*blo, 0) && !math.IsInf(*bhi, 0) {
		next = 0.5 * (*blo + *bhi)
		return next, next > *blo && next < *bhi
	}
	if g > 0 {
		next = z - *step*(1+math.Abs(z))
	} else {
		next = z + *step*(1+math.Abs(z))
	}
	*step *= 2
	return next, true
}

// intervalViolation is the dual-gradient violation of an interval equation
// at multiplier z: for z ≠ 0 the active bound's residual, for z = 0 the
// distance of the sum from the interval.
func intervalViolation(sum, lo, hi, z float64) float64 {
	switch {
	case z > 0:
		return math.Abs(sum - lo)
	case z < 0:
		return math.Abs(sum - hi)
	case sum < lo:
		return lo - sum
	case sum > hi:
		return sum - hi
	default:
		return 0
	}
}

// rowEval computes Σ_j x_ij(z+μ_j) and the interior slope of row i.
func (s *System) rowEval(i int, z float64, mu []float64) (sum, slope float64) {
	lo, hi := s.G.Row(i)
	for k := lo; k < hi; k++ {
		x, sl := s.respAt(k, z+mu[s.G.Col(i, k)])
		sum += x
		slope += sl
	}
	return sum, slope
}

// solveRow solves row i's equation in λ_i exactly (safeguarded Newton, at
// most inner steps) and returns the equation's violation at the incoming
// λ_i — this row's contribution to the staggered residual.
func (s *System) solveRow(i int, lambda, mu []float64, innerTol float64, inner int) (first float64) {
	z := lambda[i]
	var target, diag float64
	if s.Interval {
		sumIn, _ := s.rowEval(i, z, mu)
		first = intervalViolation(sumIn, s.RowLo[i], s.RowHi[i], z)
		sum0 := sumIn
		if z != 0 {
			sum0, _ = s.rowEval(i, 0, mu)
		}
		switch {
		case sum0 < s.RowLo[i]:
			target = s.RowLo[i]
		case sum0 > s.RowHi[i]:
			target = s.RowHi[i]
		default:
			lambda[i] = 0
			return first
		}
	} else {
		target = s.RowTarget[i]
		if s.RowDiag != nil {
			diag = s.RowDiag[i]
			if s.Coupled {
				target -= diag * mu[i]
			}
		}
	}
	blo, bhi := math.Inf(-1), math.Inf(1)
	if s.Interval {
		// Complementarity pins the sign: sum(0) below the lower bound means
		// λ* > 0, above the upper bound means λ* < 0.
		if target == s.RowLo[i] {
			blo = 0
		} else {
			bhi = 0
		}
	}
	step := 1.0
	for it := 0; it < inner; it++ {
		sum, slope := s.rowEval(i, z, mu)
		g := sum + diag*z - target
		if it == 0 && !s.Interval {
			first = math.Abs(g)
		}
		if math.Abs(g) <= innerTol {
			break
		}
		next, ok := newtonStep(z, g, slope+diag, &blo, &bhi, &step)
		if !ok {
			break
		}
		z = next
	}
	lambda[i] = z
	return first
}

// solveColumns runs the column half-sweep: batched passes accumulate every
// column's sum and interior slope row-major, then advance every unconverged
// μ_j one safeguarded Newton step, repeating until all column equations
// hold. Returns the worst violation of the first pass (the columns'
// staggered-residual contribution). In interval mode an initial pass also
// accumulates each column's sum at μ_j = 0 to choose the target side by
// complementarity.
func (s *System) solveColumns(lambda, mu []float64, innerTol float64, inner int) (first float64) {
	m, n := s.G.M, s.G.N
	for j := 0; j < n; j++ {
		s.bracketLo[j] = math.Inf(-1)
		s.bracketHi[j] = math.Inf(1)
		s.colActive[j] = true
	}
	if s.Interval {
		for j := 0; j < n; j++ {
			s.colSum[j] = 0
			s.colSum0[j] = 0
		}
		for i := 0; i < m; i++ {
			lo, hi := s.G.Row(i)
			for k := lo; k < hi; k++ {
				j := s.G.Col(i, k)
				x, _ := s.respAt(k, lambda[i]+mu[j])
				s.colSum[j] += x
				if mu[j] != 0 {
					x, _ = s.respAt(k, lambda[i])
				}
				s.colSum0[j] += x
			}
		}
		for j := 0; j < n; j++ {
			if v := intervalViolation(s.colSum[j], s.ColLo[j], s.ColHi[j], mu[j]); v > first {
				first = v
			}
			switch {
			case s.colSum0[j] < s.ColLo[j]:
				s.colTargetBuf[j] = s.ColLo[j]
				s.bracketLo[j] = 0
			case s.colSum0[j] > s.ColHi[j]:
				s.colTargetBuf[j] = s.ColHi[j]
				s.bracketHi[j] = 0
			default:
				mu[j] = 0
				s.colActive[j] = false
			}
			s.colDiagBuf[j] = 0
		}
	} else {
		for j := 0; j < n; j++ {
			if s.Coupled {
				s.colTargetBuf[j] = s.RowTarget[j] - s.RowDiag[j]*lambda[j]
				s.colDiagBuf[j] = s.RowDiag[j]
			} else {
				s.colTargetBuf[j] = s.ColTarget[j]
				if s.ColDiag != nil {
					s.colDiagBuf[j] = s.ColDiag[j]
				} else {
					s.colDiagBuf[j] = 0
				}
			}
		}
	}
	step := 1.0
	for pass := 0; pass < inner; pass++ {
		for j := 0; j < n; j++ {
			s.colSum[j] = 0
			s.colSlope[j] = 0
		}
		for i := 0; i < m; i++ {
			lo, hi := s.G.Row(i)
			for k := lo; k < hi; k++ {
				j := s.G.Col(i, k)
				x, sl := s.respAt(k, lambda[i]+mu[j])
				s.colSum[j] += x
				s.colSlope[j] += sl
			}
		}
		var worst float64
		moved := false
		for j := 0; j < n; j++ {
			if !s.colActive[j] {
				continue
			}
			g := s.colSum[j] + s.colDiagBuf[j]*mu[j] - s.colTargetBuf[j]
			if ag := math.Abs(g); ag > worst {
				worst = ag
			}
			if math.Abs(g) <= innerTol {
				continue
			}
			if next, ok := newtonStep(mu[j], g, s.colSlope[j]+s.colDiagBuf[j], &s.bracketLo[j], &s.bracketHi[j], &step); ok {
				mu[j] = next
				moved = true
			}
		}
		if pass == 0 && !s.Interval {
			first = worst
		}
		if worst <= innerTol || !moved {
			break
		}
	}
	return first
}

// Sweep performs one full row+column generalized-scaling sweep on (lambda,
// mu), updated in place, and returns the staggered residual: the largest
// equation violation measured at each equation's incoming multiplier — the
// ∞-norm of the dual gradient along the sweep.
func (s *System) Sweep(lambda, mu []float64, tol float64) float64 {
	n := s.G.N
	s.colSum = resize(s.colSum, n)
	s.colSlope = resize(s.colSlope, n)
	s.colSum0 = resize(s.colSum0, n)
	s.bracketLo = resize(s.bracketLo, n)
	s.bracketHi = resize(s.bracketHi, n)
	s.colTargetBuf = resize(s.colTargetBuf, n)
	s.colDiagBuf = resize(s.colDiagBuf, n)
	if cap(s.colActive) < n {
		s.colActive = make([]bool, n)
	}
	s.colActive = s.colActive[:n]
	innerTol := 0.0
	if tol > 0 {
		innerTol = tol / 4
	}
	var worst float64
	for i := 0; i < s.G.M; i++ {
		if r := s.solveRow(i, lambda, mu, innerTol, maxInner); r > worst {
			worst = r
		}
	}
	if r := s.solveColumns(lambda, mu, innerTol, maxInner); r > worst {
		worst = r
	}
	return worst
}

// Eval writes the primal x(λ,μ) into x (storage order) and the row/column
// sums into rowSum/colSum (length M/N), returning the largest equation
// violation at exactly these duals — the final residual a solver reports.
func (s *System) Eval(lambda, mu []float64, x, rowSum, colSum []float64) float64 {
	m, n := s.G.M, s.G.N
	for j := 0; j < n; j++ {
		colSum[j] = 0
	}
	for i := 0; i < m; i++ {
		lo, hi := s.G.Row(i)
		var sum float64
		for k := lo; k < hi; k++ {
			j := s.G.Col(i, k)
			xv, _ := s.respAt(k, lambda[i]+mu[j])
			x[k] = xv
			sum += xv
			colSum[j] += xv
		}
		rowSum[i] = sum
	}
	var worst float64
	for i := 0; i < m; i++ {
		var r float64
		if s.Interval {
			r = intervalViolation(rowSum[i], s.RowLo[i], s.RowHi[i], lambda[i])
		} else {
			target, diag := s.RowTarget[i], 0.0
			if s.RowDiag != nil {
				diag = s.RowDiag[i]
				if s.Coupled {
					target -= diag * mu[i]
				}
			}
			r = math.Abs(rowSum[i] + diag*lambda[i] - target)
		}
		if r > worst {
			worst = r
		}
	}
	for j := 0; j < n; j++ {
		var r float64
		switch {
		case s.Interval:
			r = intervalViolation(colSum[j], s.ColLo[j], s.ColHi[j], mu[j])
		case s.Coupled:
			r = math.Abs(colSum[j] + s.RowDiag[j]*mu[j] - (s.RowTarget[j] - s.RowDiag[j]*lambda[j]))
		default:
			target, diag := s.ColTarget[j], 0.0
			if s.ColDiag != nil {
				diag = s.ColDiag[j]
			}
			r = math.Abs(colSum[j] + diag*mu[j] - target)
		}
		if r > worst {
			worst = r
		}
	}
	return worst
}

func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// NewSystem builds the multiplicative dual system of a diagonal problem
// under the entropy objective, checking the KL domain: the prior must be
// nonnegative, positive lower bounds need positive prior cells, and a
// zero-support row or column cannot meet a strictly positive required total
// (its entries are pinned at zero by the KL term).
func NewSystem(p *core.DiagonalProblem) (*System, error) {
	var g scale.Matrix
	if p.Pattern != nil {
		g = scale.CSR(p.M, p.N, p.Gamma, p.Pattern.RowPtr, p.Pattern.ColIdx)
	} else {
		g = scale.Dense(p.M, p.N, p.Gamma)
	}
	for k, v := range p.X0 {
		if v < 0 {
			return nil, fmt.Errorf("%w: X0[%d] = %g < 0 (the KL divergence needs a nonnegative prior)", ErrDomain, k, v)
		}
		if v == 0 && p.Lower != nil && p.Lower[k] > 0 {
			return nil, fmt.Errorf("%w: Lower[%d] = %g > 0 over a zero prior cell (KL pins it at 0)", ErrDomain, k, p.Lower[k])
		}
	}
	// Zero-support structure: a row/column whose stored prior is all zero
	// sums to zero for every dual, so a strictly positive required total is
	// unreachable.
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
	needRow := func(i int) float64 {
		switch p.Kind {
		case core.FixedTotals:
			return p.S0[i]
		case core.IntervalTotals:
			return p.SLo[i]
		}
		return 0
	}
	needCol := func(j int) float64 {
		switch p.Kind {
		case core.FixedTotals:
			return p.D0[j]
		case core.IntervalTotals:
			return p.DLo[j]
		}
		return 0
	}
	for i := 0; i < p.M; i++ {
		if !rowHasMass[i] && needRow(i) > 0 {
			return nil, fmt.Errorf("%w: row %d has zero prior support but requires total %g under the entropy objective", core.ErrInfeasible, i, needRow(i))
		}
	}
	for j := 0; j < p.N; j++ {
		if !colHasMass[j] && needCol(j) > 0 {
			return nil, fmt.Errorf("%w: column %d has zero prior support but requires total %g under the entropy objective", core.ErrInfeasible, j, needCol(j))
		}
	}

	sys := &System{G: g, X0: p.X0, Lo: p.Lower, Up: p.Upper}
	halfInv := func(w []float64) []float64 {
		out := make([]float64, len(w))
		for i, v := range w {
			out[i] = 0.5 / v
		}
		return out
	}
	switch p.Kind {
	case core.FixedTotals:
		sys.RowTarget, sys.ColTarget = p.S0, p.D0
	case core.ElasticTotals:
		sys.RowTarget, sys.ColTarget = p.S0, p.D0
		sys.RowDiag = halfInv(p.Alpha)
		sys.ColDiag = halfInv(p.Beta)
	case core.Balanced:
		sys.RowTarget = p.S0
		sys.RowDiag = halfInv(p.Alpha)
		sys.Coupled = true
	case core.IntervalTotals:
		sys.Interval = true
		sys.RowLo, sys.RowHi = p.SLo, p.SHi
		sys.ColLo, sys.ColHi = p.DLo, p.DHi
	default:
		return nil, fmt.Errorf("entropy: unknown Kind %d", p.Kind)
	}
	return sys, nil
}

// Solve runs the entropy solver as a registry solver: validate the problem
// and the KL domain, sweep the multiplicative system until the staggered
// residual reaches Epsilon, and package the duals into a Solution whose
// Objective is the KL value (ObjectiveKind = ObjectiveEntropy). Options
// supply Epsilon (absolute residual tolerance), MaxIterations, Mu0 (dual
// warm start of the column multipliers) and Trace; cancellation
// is observed between sweeps. Procs is ignored: sweeps are serial and
// bit-identical at any setting.
func Solve(ctx context.Context, p *core.DiagonalProblem, opts *core.Options) (*core.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := fillOpts(opts)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	lambda := make([]float64, p.M)
	mu := make([]float64, p.N)
	if o.Mu0 != nil {
		copy(mu, o.Mu0)
	}
	nnz := int64(sys.G.Nnz())
	converged := false
	iters := 0
	var residual float64
	var cancelErr error
	for t := 1; t <= o.MaxIterations; t++ {
		residual = sys.Sweep(lambda, mu, o.Epsilon)
		iters = t
		trace.Sweep(o.Trace, "entropy", t, residual, 2*nnz)
		if residual <= o.Epsilon {
			converged = true
			break
		}
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}
	}
	sol := assemble(p, sys, lambda, mu, iters, converged)
	if cancelErr != nil {
		sol.Status = core.StatusCancelled
		return sol, cancelErr
	}
	if !converged {
		return sol, fmt.Errorf("%w: entropy after %d sweeps (residual %g)", core.ErrNotConverged, iters, residual)
	}
	return sol, nil
}

// package_ materializes the primal from the duals and assembles the
// Solution: the totals follow each kind's dual relations (the elastic ones
// are the quadratic family's, since the penalties are shared), and the
// objective is the KL value.
func assemble(p *core.DiagonalProblem, sys *System, lambda, mu []float64, iters int, converged bool) *core.Solution {
	x := make([]float64, len(p.X0))
	rowSum := make([]float64, p.M)
	colSum := make([]float64, p.N)
	worst := sys.Eval(lambda, mu, x, rowSum, colSum)
	s := make([]float64, p.M)
	d := make([]float64, p.N)
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
		Iterations:    iters,
		Converged:     converged,
		Residual:      worst,
		Objective:     p.KLObjective(x, s, d),
		ObjectiveKind: core.ObjectiveEntropy,
		DualValue:     math.NaN(),
	}
	if converged {
		sol.Status = core.StatusConverged
	} else {
		sol.Status = core.StatusMaxIterations
	}
	return sol
}

func fillOpts(o *core.Options) *core.Options {
	if o == nil {
		return core.DefaultOptions()
	}
	out := *o
	if out.Epsilon <= 0 {
		out.Epsilon = 1e-3
	}
	if out.MaxIterations <= 0 {
		out.MaxIterations = 100000
	}
	return &out
}
