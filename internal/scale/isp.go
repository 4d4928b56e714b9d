package scale

import (
	"fmt"
	"math"
)

// System is the additive dual-scaling view of a diagonal quadratic
// constrained matrix problem:
//
//	x_ij(λ,μ) = clamp(x⁰_ij + a_ij·(λ_i + μ_j), l_ij, u_ij)
//	row i:    Σ_j x_ij = R_i − e_i·λ_i        (e_i = 0: fixed total)
//	column j: Σ_i x_ij = C_j − f_j·μ_j        (f_j = 0: fixed total)
//
// where a_ij = 1/(2γ_ij) are the dual slopes. This is exactly the KKT
// system SEA ascends; the iterative scaling procedure (ISP) here is the
// cheap additive analogue of a SEA iteration — a linearized, clamped
// Gauss–Seidel sweep over (λ, μ) with no sorting, O(nnz) per sweep. A
// fixed point of the sweep satisfies the full KKT system (the clamp IS
// complementary slackness), so ISP doubles as an exact solver for
// unbounded problems and as the dual warm start for bounded ones.
//
// For Balanced (SAM) problems set Coupled: row i and column i then share
// the total R_i with the coupling term e_i·(λ_i + μ_i) on both sides.
type System struct {
	// A is the slope matrix a_ij = 1/(2γ_ij), strictly positive on the
	// support; its storage (dense or CSR) fixes the layout of X0/Lo/Up.
	A Matrix
	// X0 is the prior, in A's storage order.
	X0 []float64
	// Lo and Up are the box bounds in storage order; nil means the
	// classical constraint set (lower 0, upper +∞).
	Lo, Up []float64
	// RowTarget and ColTarget are R_i and C_j.
	RowTarget, ColTarget []float64
	// RowDiag and ColDiag are the elastic diagonal terms e_i = 1/(2α_i),
	// f_j = 1/(2β_j); nil means fixed totals on that side.
	RowDiag, ColDiag []float64
	// Coupled marks the Balanced kind: m = n, ColTarget/ColDiag are
	// ignored in favour of RowTarget/RowDiag, and the elastic term reads
	// e_i·(λ_i + μ_i) on both the row and column equations.
	Coupled bool

	// Per-column Newton brackets, lazily sized scratch for the column
	// half-sweep (see Run).
	colLo, colHi []float64

	// Relaxed/exact escalation state (see Run). It persists across Run
	// calls like the duals do, so chunked runs behave exactly like one
	// long run.
	runInit  bool
	runExact bool
	lastRes  float64
	winBest  float64
	prevWin  float64
	winCount int
}

// Reuse makes s the system next while keeping s's scratch buffers: the
// escalation state starts fresh, exactly as on a new System, so a
// long-lived System reruns on new data without reallocating.
func (s *System) Reuse(next System) {
	colLo, colHi := s.colLo, s.colHi
	*s = next
	s.colLo, s.colHi = colLo, colHi
}

// Validate checks the system's dimensions and entry ranges.
func (s *System) Validate() error {
	if err := s.A.Validate(); err != nil {
		return err
	}
	nv := s.A.Nnz()
	if len(s.X0) != nv {
		return fmt.Errorf("scale: len(X0) = %d, want %d", len(s.X0), nv)
	}
	for k, v := range s.X0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: X0[%d] = %v", ErrNotFinite, k, v)
		}
	}
	for k, v := range s.A.Val {
		if !(v > 0) {
			return fmt.Errorf("scale: slope A[%d] = %g, want positive", k, v)
		}
	}
	if len(s.RowTarget) != s.A.M {
		return fmt.Errorf("scale: len(RowTarget) = %d, want %d", len(s.RowTarget), s.A.M)
	}
	if s.Coupled {
		if s.A.M != s.A.N {
			return fmt.Errorf("scale: coupled system must be square, got %d×%d", s.A.M, s.A.N)
		}
		if s.RowDiag == nil {
			return fmt.Errorf("scale: coupled system requires RowDiag (the shared elastic term)")
		}
	} else if len(s.ColTarget) != s.A.N {
		return fmt.Errorf("scale: len(ColTarget) = %d, want %d", len(s.ColTarget), s.A.N)
	}
	if s.RowDiag != nil && len(s.RowDiag) != s.A.M {
		return fmt.Errorf("scale: len(RowDiag) = %d, want %d", len(s.RowDiag), s.A.M)
	}
	if s.ColDiag != nil && len(s.ColDiag) != s.A.N {
		return fmt.Errorf("scale: len(ColDiag) = %d, want %d", len(s.ColDiag), s.A.N)
	}
	if (s.Lo != nil && len(s.Lo) != nv) || (s.Up != nil && len(s.Up) != nv) {
		return fmt.Errorf("scale: bounds length mismatch (lo=%d up=%d, want %d)", len(s.Lo), len(s.Up), nv)
	}
	return nil
}

// rowCells is one row's stored cells, sliced once per row so the ISP
// kernels' per-cell loops index plain slices: a, x0 and (when the system has
// them) lo, up share the row's storage span. cols is nil for dense storage,
// where cell t sits in column t. Every kernel picks its loop — dense or CSR,
// classical (lo = up = nil: x ≥ 0 only) or boxed — once per row.
type rowCells struct {
	a, x0, lo, up []float64
	cols          []int32
}

func (s *System) row(i int) rowCells {
	k0, k1 := s.A.Row(i)
	r := rowCells{a: s.A.Val[k0:k1], x0: s.X0[k0:k1]}
	if s.A.ColIdx != nil {
		r.cols = s.A.ColIdx[k0:k1]
	}
	if s.Lo != nil {
		r.lo = s.Lo[k0:k1]
	}
	if s.Up != nil {
		r.up = s.Up[k0:k1]
	}
	return r
}

// clampBox evaluates x = clamp(x, l_t, u_t) on a boxed row (nil lo: lower
// bound 0; nil up: no upper bound) and reports whether the cell is strictly
// interior, contributing its slope to the row/column derivative.
func clampBox(x float64, lo, up []float64, t int) (float64, bool) {
	l := 0.0
	if lo != nil {
		l = lo[t]
	}
	if x <= l {
		return l, false
	}
	if up != nil && x >= up[t] {
		return up[t], false
	}
	return x, true
}

// interiorSlope returns a when the classical cell value x is interior
// (x > 0, or NaN as in clampBox) and +0 when it clamps at 0, by masking a's
// bits instead of branching: which cells clamp shifts with every dual step,
// so a branch there mispredicts often.
func interiorSlope(x, a float64) float64 {
	var mask uint64
	if !(x <= 0) {
		mask = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(a) & mask)
}

// sums is the row kernel: the row's Σ_t x_t and interior slope Σ a_t at row
// dual z, with x_t = clamp(x⁰_t + a_t·(z + μ_j)) summed left to right. The
// classical loops add max(x, 0) and interiorSlope unconditionally: a clamped
// cell adds +0 to each sum, which starts at +0 and only ever gains
// non-negatives there, so the result is bit-identical to skipping the cell.
func (r *rowCells) sums(z float64, mu []float64) (sum, asum float64) {
	a, x0, cols := r.a, r.x0[:len(r.a)], r.cols
	switch {
	case r.lo == nil && r.up == nil && cols == nil:
		mu = mu[:len(a)]
		for t, at := range a {
			x := x0[t] + at*(z+mu[t])
			sum += max(x, 0)
			asum += interiorSlope(x, at)
		}
	case r.lo == nil && r.up == nil:
		cols = cols[:len(a)]
		for t, at := range a {
			x := x0[t] + at*(z+mu[cols[t]])
			sum += max(x, 0)
			asum += interiorSlope(x, at)
		}
	case cols == nil:
		mu = mu[:len(a)]
		for t, at := range a {
			x, in := clampBox(x0[t]+at*(z+mu[t]), r.lo, r.up, t)
			sum += x
			if in {
				asum += at
			}
		}
	default:
		cols = cols[:len(a)]
		for t, at := range a {
			x, in := clampBox(x0[t]+at*(z+mu[cols[t]]), r.lo, r.up, t)
			sum += x
			if in {
				asum += at
			}
		}
	}
	return sum, asum
}

// scatter is the column kernel: it adds the row's cells at row dual z into
// colSum and their interior slopes into colASum, with the same clamp and
// the same branch-free classical loops as sums.
func (r *rowCells) scatter(z float64, mu, colSum, colASum []float64) {
	a, x0, cols := r.a, r.x0[:len(r.a)], r.cols
	switch {
	case r.lo == nil && r.up == nil && cols == nil:
		mu, colSum, colASum = mu[:len(a)], colSum[:len(a)], colASum[:len(a)]
		for t, at := range a {
			x := x0[t] + at*(z+mu[t])
			colSum[t] += max(x, 0)
			colASum[t] += interiorSlope(x, at)
		}
	case r.lo == nil && r.up == nil:
		cols = cols[:len(a)]
		for t, at := range a {
			j := cols[t]
			x := x0[t] + at*(z+mu[j])
			colSum[j] += max(x, 0)
			colASum[j] += interiorSlope(x, at)
		}
	case cols == nil:
		mu, colSum, colASum = mu[:len(a)], colSum[:len(a)], colASum[:len(a)]
		for t, at := range a {
			x, in := clampBox(x0[t]+at*(z+mu[t]), r.lo, r.up, t)
			colSum[t] += x
			if in {
				colASum[t] += at
			}
		}
	default:
		cols = cols[:len(a)]
		for t, at := range a {
			j := cols[t]
			x, in := clampBox(x0[t]+at*(z+mu[j]), r.lo, r.up, t)
			colSum[j] += x
			if in {
				colASum[j] += at
			}
		}
	}
}

// eval writes the row's cells at row dual z into x (the row's storage span),
// adds them into colSum and returns their sum. It runs once per solve, so
// one boxed loop per storage serves classical rows too.
func (r *rowCells) eval(z float64, mu, x, colSum []float64) (sum float64) {
	a, x0, cols := r.a, r.x0[:len(r.a)], r.cols
	x = x[:len(a)]
	if cols == nil {
		mu, colSum = mu[:len(a)], colSum[:len(a)]
		for t, at := range a {
			x[t], _ = clampBox(x0[t]+at*(z+mu[t]), r.lo, r.up, t)
			sum += x[t]
			colSum[t] += x[t]
		}
		return sum
	}
	cols = cols[:len(a)]
	for t, at := range a {
		j := cols[t]
		x[t], _ = clampBox(x0[t]+at*(z+mu[j]), r.lo, r.up, t)
		sum += x[t]
		colSum[j] += x[t]
	}
	return sum
}

// rowAbs returns row i's equation in absolute form: with z = λ_i,
//
//	Σ_j clamp(x⁰_ij + a_ij(z + μ_j)) + diag·z = target.
func (s *System) rowAbs(i int, mu []float64) (target, diag float64) {
	target = s.RowTarget[i]
	if s.RowDiag == nil {
		return target, 0
	}
	e := s.RowDiag[i]
	if s.Coupled {
		return target - e*mu[i], e
	}
	return target, e
}

// colAbs returns column j's equation in absolute form: with z = μ_j,
//
//	Σ_i clamp(x⁰_ij + a_ij(λ_i + z)) + diag·z = target.
func (s *System) colAbs(j int, lambda []float64) (target, diag float64) {
	if s.Coupled {
		e := s.RowDiag[j]
		return s.RowTarget[j] - e*lambda[j], e
	}
	target = s.ColTarget[j]
	if s.ColDiag == nil {
		return target, 0
	}
	return target, s.ColDiag[j]
}

// ispMaxInner caps the safeguarded-Newton iterations spent on one equation
// (rows) or one batched column pass per half-sweep. Piecewise-linear
// monotone equations resolve in a handful of steps; the cap only bounds the
// flat infeasible tails.
const ispMaxInner = 32

// newtonStep advances one safeguarded Newton step on a monotone increasing
// piecewise-linear equation g(z) = 0 evaluated at z: the bracket tightens on
// the current sign's side, a Newton candidate outside the open bracket (or
// with a vanishing slope) falls back to bisection, and a one-sided bracket
// expands geometrically via step. ok = false means the iteration cannot
// move any further.
func newtonStep(z, g, slope float64, blo, bhi, step *float64) (next float64, ok bool) {
	if g > 0 {
		*bhi = z
	} else {
		*blo = z
	}
	if slope > 0 {
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

// solveRow solves row i's piecewise-linear equation in λ_i by safeguarded
// Newton, spending at most inner steps, and returns the equation's absolute
// violation at the incoming λ_i — this row's contribution to the staggered
// residual.
func (s *System) solveRow(i int, lambda, mu []float64, innerTol float64, inner int) (first float64) {
	target, diag := s.rowAbs(i, mu)
	r := s.row(i)
	z := lambda[i]
	blo, bhi := math.Inf(-1), math.Inf(1)
	step := 1.0
	for it := 0; it < inner; it++ {
		sum, asum := r.sums(z, mu)
		g := sum + diag*z - target
		if it == 0 {
			first = math.Abs(g)
		}
		if math.Abs(g) <= innerTol {
			break
		}
		next, ok := newtonStep(z, g, asum+diag, &blo, &bhi, &step)
		if !ok {
			break
		}
		z = next
	}
	lambda[i] = z
	return first
}

// solveColumns runs the column half-sweep. Columns are independent given λ,
// and each batched pass accumulates every column's sum and interior slope in
// one row-major pass over the matrix (no CSC mirror needed), then advances
// every unconverged μ_j one safeguarded Newton step; passes repeat until all
// column equations hold. The return value is the worst absolute violation
// of the first pass — the columns' contribution to the staggered residual.
func (s *System) solveColumns(lambda, mu, colSum, colASum []float64, innerTol float64, inner int) (first float64) {
	m, n := s.A.M, s.A.N
	for j := 0; j < n; j++ {
		s.colLo[j] = math.Inf(-1)
		s.colHi[j] = math.Inf(1)
	}
	step := 1.0
	for pass := 0; pass < inner; pass++ {
		for j := 0; j < n; j++ {
			colSum[j] = 0
			colASum[j] = 0
		}
		for i := 0; i < m; i++ {
			r := s.row(i)
			r.scatter(lambda[i], mu, colSum, colASum)
		}
		var worst float64
		moved := false
		for j := 0; j < n; j++ {
			target, diag := s.colAbs(j, lambda)
			g := colSum[j] + diag*mu[j] - target
			if ag := math.Abs(g); ag > worst {
				worst = ag
			}
			if math.Abs(g) <= innerTol {
				continue
			}
			if next, ok := newtonStep(mu[j], g, colASum[j]+diag, &s.colLo[j], &s.colHi[j], &step); ok {
				mu[j] = next
				moved = true
			}
		}
		if pass == 0 {
			first = worst
		}
		if worst <= innerTol || !moved {
			break
		}
	}
	return first
}

// Run performs up to sweeps full row+column ISP sweeps on (lambda, mu),
// both length M/N and updated in place (zeros are the cold start; warm
// duals continue from where they are). It stops early when the residual —
// the largest absolute row/column equation violation at the staggered
// iterates, the ∞-norm of the dual gradient — reaches tol (tol ≤ 0 never
// stops early). observe, when non-nil, receives every sweep's index and
// residual.
//
// Sweeps start in a relaxed mode — one linearized Newton step per equation,
// two matrix passes per sweep, the cheapest useful unit of dual progress —
// and escalate to exact half-sweeps (safeguarded Newton per row, batched
// Newton passes per column, each an exact two-block coordinate-ascent step
// on the concave dual, globally convergent) as soon as the relaxed residual
// stalls or the endgame nears. Mostly-interior problems therefore pay the
// single-step price per sweep, while heavily clamped ones — where single
// linearized steps can cycle across breakpoints — self-correct within a few
// sweeps.
//
// colSum and colASum are caller scratch of length N (nil to allocate): the
// column half-sweep accumulates per-column sums row-major instead of
// requiring a CSC mirror, so a pass reads the matrix once and allocates
// nothing.
func (s *System) Run(lambda, mu []float64, sweeps int, tol float64, colSum, colASum []float64, observe func(int, float64)) Result {
	n := s.A.N
	colSum = resize(colSum, n)
	colASum = resize(colASum, n)
	s.colLo = resize(s.colLo, n)
	s.colHi = resize(s.colHi, n)
	innerTol := 0.0
	if tol > 0 {
		innerTol = tol / 4
	}
	if !s.runInit {
		s.runInit = true
		s.lastRes = math.Inf(1)
		s.winBest = math.Inf(1)
		s.prevWin = math.Inf(1)
	}
	var res Result
	for t := 1; t <= sweeps; t++ {
		res.Iterations = t
		inner := 1
		if s.runExact || (tol > 0 && s.lastRes <= 8*tol) {
			inner = ispMaxInner
		}
		var worst float64
		// Row half-sweep: every λ_i solve is independent given μ.
		for i := 0; i < s.A.M; i++ {
			if r := s.solveRow(i, lambda, mu, innerTol, inner); r > worst {
				worst = r
			}
		}
		if r := s.solveColumns(lambda, mu, colSum, colASum, innerTol, inner); r > worst {
			worst = r
		}
		res.Residual = worst
		s.lastRes = worst
		if observe != nil {
			observe(t, worst)
		}
		if worst == 0 && !res.Exact {
			res.Exact = true
			res.ExactIteration = t
		}
		if tol > 0 && worst <= tol {
			res.Converged = true
			return res
		}
		// Escalate once a 6-sweep window's best residual stops improving on
		// the previous window's — relaxed sweeps oscillate with period 2 at
		// the staggered iterates, so consecutive-sweep comparisons would
		// misread a healthy downward trend as a stall.
		if !s.runExact {
			if worst < s.winBest {
				s.winBest = worst
			}
			if s.winCount++; s.winCount >= 6 {
				if s.winBest >= 0.98*s.prevWin {
					s.runExact = true
				}
				s.prevWin = s.winBest
				s.winBest = math.Inf(1)
				s.winCount = 0
			}
		}
	}
	return res
}

// Eval writes the primal iterate x(λ,μ) implied by the duals into x
// (storage order, length Nnz) and returns the largest absolute row/column
// equation violation at exactly these duals — the measure a solver built on
// Run reports as its final residual.
func (s *System) Eval(lambda, mu []float64, x, rowSum, colSum []float64) float64 {
	m, n := s.A.M, s.A.N
	rowSum = resize(rowSum, m)
	colSum = resize(colSum, n)
	for j := 0; j < n; j++ {
		colSum[j] = 0
	}
	for i := 0; i < m; i++ {
		k0, k1 := s.A.Row(i)
		r := s.row(i)
		rowSum[i] = r.eval(lambda[i], mu, x[k0:k1], colSum)
	}
	var worst float64
	for i := 0; i < m; i++ {
		target, diag := s.rowAbs(i, mu)
		if r := math.Abs(rowSum[i] + diag*lambda[i] - target); r > worst {
			worst = r
		}
	}
	for j := 0; j < n; j++ {
		target, diag := s.colAbs(j, lambda)
		if r := math.Abs(colSum[j] + diag*mu[j] - target); r > worst {
			worst = r
		}
	}
	return worst
}
