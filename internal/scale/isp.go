package scale

import (
	"fmt"
	"math"
)

// Response is a System's cell response: how a cell's value follows the dual
// sum d = λ_i + μ_j of its row and column multipliers.
type Response uint8

const (
	// Additive is the response of the diagonal quadratic problem,
	// clamp(x⁰ + a·d, l, u), with A holding the slopes a = 1/(2γ). Its
	// sweeps are the iterative scaling procedure (ISP).
	Additive Response = iota
	// Exponential is the response of the entropy (KL) problem,
	// clamp(x⁰·e^{d/γ}, l, u), with A holding the weights γ. Its sweeps are
	// generalized iterative scaling.
	Exponential
)

// System is the dual-scaling view of a diagonal constrained matrix problem:
//
//	x_ij(λ,μ) = response of cell ij at λ_i + μ_j, clamped to [l_ij, u_ij]
//	row i:    Σ_j x_ij = R_i − e_i·λ_i        (e_i = 0: fixed total)
//	column j: Σ_i x_ij = C_j − f_j·μ_j        (f_j = 0: fixed total)
//
// This is exactly the KKT system of the problem's objective (see Response).
// Both responses are monotone in the dual, so each equation is a monotone
// one-dimensional root problem, and Run ascends the concave dual by
// block-coordinate sweeps over (λ, μ), O(nnz) per matrix pass with no
// sorting. Under the additive response this is the cheap analogue of a SEA
// iteration; a fixed point of the sweep satisfies the full KKT system (the
// clamp IS complementary slackness), so it doubles as an exact solver for
// unbounded problems and as the dual warm start for bounded ones.
//
// For Balanced (SAM) problems set Coupled: row i and column i then share
// the total R_i with the coupling term e_i·(λ_i + μ_i) on both sides. For
// interval totals set RowLo/RowHi/ColLo/ColHi instead of the targets: each
// equation then reads lo ≤ Σ x ≤ hi, with its multiplier zero while the sum
// lies inside and the binding bound chosen by complementarity.
type System struct {
	// Response selects the cell response; the zero value is Additive.
	Response Response
	// A holds the cell coefficients — slopes a_ij = 1/(2γ_ij) under the
	// additive response, weights γ_ij under the exponential one — strictly
	// positive on the support; its storage (dense or CSR) fixes the layout
	// of X0/Lo/Up.
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
	// RowLo/RowHi and ColLo/ColHi, when set, are interval totals: they
	// replace the targets and elastic terms.
	RowLo, RowHi, ColLo, ColHi []float64

	// Run's scratch, lazily sized: one slab carved into the per-column
	// Newton brackets colBlo/colBhi and the over-relaxation checkpoint
	// (see Run), and for interval totals the chosen column targets and a
	// zero μ.
	slab, colBlo, colBhi, colTgt, zeroMu []float64

	// Relaxed/exact escalation state and the over-relaxation rule (see
	// Run). They persist across Run calls like the duals do, so chunked runs
	// behave exactly like one long run.
	runInit  bool
	runExact bool
	sor      SOR
}

// Reuse makes s the system next while keeping s's scratch buffers: the
// escalation state starts fresh, exactly as on a new System, so a
// long-lived System reruns on new data without reallocating.
func (s *System) Reuse(next System) {
	slab, tgt, zero := s.slab, s.colTgt, s.zeroMu
	*s = next
	s.slab, s.colTgt, s.zeroMu = slab, tgt, zero
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
			return fmt.Errorf("scale: A[%d] = %g, want positive", k, v)
		}
	}
	if s.RowLo != nil {
		if len(s.RowLo) != s.A.M || len(s.RowHi) != s.A.M || len(s.ColLo) != s.A.N || len(s.ColHi) != s.A.N {
			return fmt.Errorf("scale: interval lengths rows %d/%d, columns %d/%d, want %d and %d",
				len(s.RowLo), len(s.RowHi), len(s.ColLo), len(s.ColHi), s.A.M, s.A.N)
		}
	} else if len(s.RowTarget) != s.A.M {
		return fmt.Errorf("scale: len(RowTarget) = %d, want %d", len(s.RowTarget), s.A.M)
	}
	if s.Coupled {
		if s.A.M != s.A.N {
			return fmt.Errorf("scale: coupled system must be square, got %d×%d", s.A.M, s.A.N)
		}
		if s.RowDiag == nil {
			return fmt.Errorf("scale: coupled system requires RowDiag (the shared elastic term)")
		}
	} else if s.RowLo == nil && len(s.ColTarget) != s.A.N {
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

// rowCells is one row's stored cells, sliced once per row so the kernels'
// per-cell loops index plain slices: a, x0 and (when the system has them)
// lo, up share the row's storage span. cols is nil for dense storage, where
// cell t sits in column t. Every kernel picks its loop — the response,
// dense or CSR, classical (lo = up = nil: x ≥ 0 only) or boxed — once per
// row.
type rowCells struct {
	a, x0, lo, up []float64
	cols          []int32
	exp           bool
}

func (s *System) row(i int) rowCells {
	k0, k1 := s.A.Row(i)
	r := rowCells{a: s.A.Val[k0:k1], x0: s.X0[k0:k1], exp: s.Response == Exponential}
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

// col returns the column of the row's cell t.
func (r *rowCells) col(t int) int {
	if r.cols == nil {
		return t
	}
	return int(r.cols[t])
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

// maxExpArg caps the exponent d/γ of the exponential response so a cell
// stays finite through Newton's bracketing instead of overflowing to +Inf
// midway. e^700 ≈ 1.0e304 leaves headroom for sums.
const maxExpArg = 700

// expAt evaluates the exponential response of the row's cell t,
// x = clamp(x⁰·e^{d/γ}, l, u), at dual sum d, and its slope dx/dd = x/γ,
// which is zero when the cell clamps or overflows to +Inf.
func (r *rowCells) expAt(t int, d float64) (x, slope float64) {
	g := r.a[t]
	e := d / g
	if e > maxExpArg {
		e = maxExpArg
	}
	x, in := clampBox(r.x0[t]*math.Exp(e), r.lo, r.up, t)
	if !in || math.IsInf(x, 1) {
		return x, 0
	}
	return x, x / g
}

// interiorMask returns all ones when the classical cell value x is interior
// (x > 0, or NaN as in clampBox) and zero when it clamps at 0. One mask per
// cell serves both of its sums, without a branch: which cells clamp shifts
// with every dual step, so a branch there mispredicts often.
func interiorMask(x float64) uint64 {
	var mask uint64
	if !(x <= 0) {
		mask = ^uint64(0)
	}
	return mask
}

// masked keeps v where mask is set and gives +0 elsewhere. masked(x,
// interiorMask(x)) is max(x, 0) bit for bit, ±0 included, except that a NaN
// keeps its own bits as in clampBox (Go's max clears a NaN's sign bit), and
// masked(a, interiorMask(x)) is the cell's interior slope.
func masked(v float64, mask uint64) float64 {
	return math.Float64frombits(math.Float64bits(v) & mask)
}

// sums is the row kernel: the row's Σ_t x_t and interior slope Σ a_t at row
// dual z, with x_t = clamp(x⁰_t + a_t·(z + μ_j)) summed left to right. The
// classical loops add each masked cell and slope unconditionally: a clamped
// cell adds +0 to each sum, which starts at +0 and only ever gains
// non-negatives there, so the result is bit-identical to skipping the cell.
func (r *rowCells) sums(z float64, mu []float64) (sum, asum float64) {
	if r.exp {
		return r.expSums(z, mu)
	}
	a, x0, cols := r.a, r.x0[:len(r.a)], r.cols
	switch {
	case r.lo == nil && r.up == nil && cols == nil:
		mu = mu[:len(a)]
		for t, at := range a {
			x := x0[t] + at*(z+mu[t])
			in := interiorMask(x)
			sum += masked(x, in)
			asum += masked(at, in)
		}
	case r.lo == nil && r.up == nil:
		cols = cols[:len(a)]
		for t, at := range a {
			x := x0[t] + at*(z+mu[cols[t]])
			in := interiorMask(x)
			sum += masked(x, in)
			asum += masked(at, in)
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

// pairedRows reports whether the sweeps take the rows two at a time: the
// dense classical additive loop, where rows i and i+1 are adjacent spans of
// storage whose cells t both sit in column t. pairSums and pairScatter serve
// such a pair — a, x0 the upper row's cells, b, y0 the lower's — in one pass
// that loads μ_t once; each row keeps its own sums, still added left to
// right, so a pair is bit-identical to its two rows one after the other.
func (s *System) pairedRows() bool {
	return s.Response == Additive && s.Lo == nil && s.Up == nil && s.A.ColIdx == nil
}

// rowPair returns the cells of the paired rows i and i+1.
func (s *System) rowPair(i int) (a, x0, b, y0 []float64) {
	n := s.A.N
	k := i * n
	return s.A.Val[k : k+n], s.X0[k : k+n], s.A.Val[k+n : k+2*n], s.X0[k+n : k+2*n]
}

// pairSums is sums for a pair of rows at row duals z and w. The two rows'
// sums are independent add chains, so each hides the other's latency.
func pairSums(a, x0, b, y0 []float64, z, w float64, mu []float64) (zsum, zasum, wsum, wasum float64) {
	x0, b, y0, mu = x0[:len(a)], b[:len(a)], y0[:len(a)], mu[:len(a)]
	for t, at := range a {
		m, bt := mu[t], b[t]
		x := x0[t] + at*(z+m)
		y := y0[t] + bt*(w+m)
		xin, yin := interiorMask(x), interiorMask(y)
		zsum += masked(x, xin)
		zasum += masked(at, xin)
		wsum += masked(y, yin)
		wasum += masked(bt, yin)
	}
	return zsum, zasum, wsum, wasum
}

// pairScatter is scatter for a pair of rows at row duals z (the upper row)
// and w: each column accumulator is loaded and stored once per pair and
// gains the upper row's cell, then the lower's, the order the rows would add
// them in one at a time. CSR rows stay unpaired: two rows' cells interleaved
// by position can reach one column out of row order, which changes its
// sum's bits.
func pairScatter(a, x0, b, y0 []float64, z, w float64, mu, colSum, colASum []float64) {
	x0, b, y0, mu = x0[:len(a)], b[:len(a)], y0[:len(a)], mu[:len(a)]
	colSum, colASum = colSum[:len(a)], colASum[:len(a)]
	for t, at := range a {
		m, bt := mu[t], b[t]
		x := x0[t] + at*(z+m)
		y := y0[t] + bt*(w+m)
		xin, yin := interiorMask(x), interiorMask(y)
		colSum[t] = (colSum[t] + masked(x, xin)) + masked(y, yin)
		colASum[t] = (colASum[t] + masked(at, xin)) + masked(bt, yin)
	}
}

// scatter is the column kernel: it adds the row's cells at row dual z into
// colSum and their interior slopes into colASum, with the same clamp and
// the same branch-free classical loops as sums.
func (r *rowCells) scatter(z float64, mu, colSum, colASum []float64) {
	if r.exp {
		r.expScatter(z, mu, colSum, colASum)
		return
	}
	a, x0, cols := r.a, r.x0[:len(r.a)], r.cols
	switch {
	case r.lo == nil && r.up == nil && cols == nil:
		mu, colSum, colASum = mu[:len(a)], colSum[:len(a)], colASum[:len(a)]
		for t, at := range a {
			x := x0[t] + at*(z+mu[t])
			in := interiorMask(x)
			colSum[t] += masked(x, in)
			colASum[t] += masked(at, in)
		}
	case r.lo == nil && r.up == nil:
		cols = cols[:len(a)]
		for t, at := range a {
			j := cols[t]
			x := x0[t] + at*(z+mu[j])
			in := interiorMask(x)
			colSum[j] += masked(x, in)
			colASum[j] += masked(at, in)
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
	if r.exp {
		return r.expEval(z, mu, x, colSum)
	}
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

// expSums, expScatter and expEval are sums, scatter and eval under the
// exponential response: each visits the row's cells left to right, adding
// every cell's value and slope — zero for a clamped cell — unconditionally.
// The exponential dominates a cell visit, so one loop serves both storages
// and both bound families.
func (r *rowCells) expSums(z float64, mu []float64) (sum, slope float64) {
	for t := range r.a {
		x, sl := r.expAt(t, z+mu[r.col(t)])
		sum += x
		slope += sl
	}
	return sum, slope
}

func (r *rowCells) expScatter(z float64, mu, colSum, colSlope []float64) {
	for t := range r.a {
		j := r.col(t)
		x, sl := r.expAt(t, z+mu[j])
		colSum[j] += x
		colSlope[j] += sl
	}
}

func (r *rowCells) expEval(z float64, mu, x, colSum []float64) (sum float64) {
	for t := range r.a {
		j := r.col(t)
		x[t], _ = r.expAt(t, z+mu[j])
		sum += x[t]
		colSum[j] += x[t]
	}
	return sum
}

// rowAbs returns row i's equation in absolute form: with z = λ_i,
//
//	Σ_j x_ij(z + μ_j) + diag·z = target.
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
//	Σ_i x_ij(λ_i + z) + diag·z = target.
//
// Under interval totals the target is the one solveColumns chose.
func (s *System) colAbs(j int, lambda []float64) (target, diag float64) {
	switch {
	case s.ColLo != nil:
		return s.colTgt[j], 0
	case s.Coupled:
		e := s.RowDiag[j]
		return s.RowTarget[j] - e*lambda[j], e
	case s.ColDiag == nil:
		return s.ColTarget[j], 0
	}
	return s.ColTarget[j], s.ColDiag[j]
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

// rowViolation and colViolation return an equation's absolute violation
// given its sum at the duals (λ, μ).
func (s *System) rowViolation(i int, sum float64, lambda, mu []float64) float64 {
	if s.RowLo != nil {
		return intervalViolation(sum, s.RowLo[i], s.RowHi[i], lambda[i])
	}
	target, diag := s.rowAbs(i, mu)
	return math.Abs(sum + diag*lambda[i] - target)
}

func (s *System) colViolation(j int, sum float64, lambda, mu []float64) float64 {
	if s.ColLo != nil {
		return intervalViolation(sum, s.ColLo[j], s.ColHi[j], mu[j])
	}
	target, diag := s.colAbs(j, lambda)
	return math.Abs(sum + diag*mu[j] - target)
}

// maxInner caps the safeguarded-Newton iterations spent on one row equation
// or one batched column pass per half-sweep. Monotone equations resolve in a
// handful of steps; the cap only bounds the flat infeasible tails.
const maxInner = 32

// newtonStep advances one safeguarded Newton step on a monotone increasing
// equation g(z) = 0 evaluated at z: the bracket tightens on the current
// sign's side, a Newton candidate outside the open bracket (or with a
// vanishing slope, or an infinite g) falls back to bisection, and a
// one-sided bracket expands geometrically via step. ok = false means the
// iteration cannot move any further.
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

// rowEq is one row equation's safeguarded-Newton state within a row
// half-sweep: the iterate z = λ_i, its bracket and expansion step, the
// equation in absolute form, first, the violation at the incoming λ_i, and
// the over-relaxation factor of its steps. open is false once the
// iteration stops.
type rowEq struct {
	z, blo, bhi, step float64
	target, diag      float64
	first, omega      float64
	interval, open    bool
}

// openRow starts row i's equation at the incoming λ_i. Under interval
// totals, complementarity picks the equation first: the row sum at λ_i = 0
// below the interval binds the lower bound (λ_i > 0), above it the upper
// bound (λ_i < 0), and inside it λ_i = 0 with no iteration.
func (s *System) openRow(i int, lambda, mu []float64) rowEq {
	e := rowEq{z: lambda[i], blo: math.Inf(-1), bhi: math.Inf(1), step: 1, omega: s.sor.Omega(), open: true}
	if s.RowLo == nil {
		e.target, e.diag = s.rowAbs(i, mu)
		return e
	}
	e.interval = true
	r := s.row(i)
	sum, _ := r.sums(e.z, mu)
	e.first = s.rowViolation(i, sum, lambda, mu)
	if e.z != 0 {
		sum, _ = r.sums(0, mu)
	}
	switch {
	case sum < s.RowLo[i]:
		e.target, e.blo = s.RowLo[i], 0
	case sum > s.RowHi[i]:
		e.target, e.bhi = s.RowHi[i], 0
	default:
		e.z, e.open = 0, false
	}
	return e
}

// advance takes Newton iteration it from the row's sums at z and reports
// whether the iteration goes on.
func (e *rowEq) advance(it int, sum, asum, innerTol float64) bool {
	g := sum + e.diag*e.z - e.target
	if it == 0 && !e.interval {
		e.first = math.Abs(g)
	}
	if math.Abs(g) <= innerTol {
		return false
	}
	next, ok := newtonStep(e.z, g, asum+e.diag, &e.blo, &e.bhi, &e.step)
	if ok {
		e.z = Relax(e.z, next, e.omega)
	}
	return ok
}

// run takes the row's Newton iterations it, …, inner−1 alone, while the
// equation stays open.
func (e *rowEq) run(r *rowCells, it, inner int, mu []float64, innerTol float64) {
	for ; it < inner && e.open; it++ {
		sum, asum := r.sums(e.z, mu)
		e.open = e.advance(it, sum, asum, innerTol)
	}
}

// solveRow solves row i's equation in λ_i by safeguarded Newton, spending at
// most inner steps, and returns the equation's absolute violation at the
// incoming λ_i — this row's contribution to the staggered residual.
func (s *System) solveRow(i int, lambda, mu []float64, innerTol float64, inner int) (first float64) {
	e := s.openRow(i, lambda, mu)
	r := s.row(i)
	e.run(&r, 0, inner, mu, innerTol)
	lambda[i] = e.z
	return e.first
}

// solveRowPair is solveRow for the paired rows i and i+1 (see pairedRows):
// their Newton iterations run in lockstep over pairSums while both are
// open, and the one left open finishes alone. Each row takes exactly the
// steps solveRow would take it through.
func (s *System) solveRowPair(i int, lambda, mu []float64, innerTol float64, inner int) (first, second float64) {
	e, f := s.openRow(i, lambda, mu), s.openRow(i+1, lambda, mu)
	a, x0, b, y0 := s.rowPair(i)
	it := 0
	for ; it < inner && e.open && f.open; it++ {
		zsum, zasum, wsum, wasum := pairSums(a, x0, b, y0, e.z, f.z, mu)
		e.open = e.advance(it, zsum, zasum, innerTol)
		f.open = f.advance(it, wsum, wasum, innerTol)
	}
	if e.open {
		r := s.row(i)
		e.run(&r, it, inner, mu, innerTol)
	}
	if f.open {
		q := s.row(i + 1)
		f.run(&q, it, inner, mu, innerTol)
	}
	lambda[i], lambda[i+1] = e.z, f.z
	return e.first, f.first
}

// maxViolation folds v into the running worst violation. A NaN violation
// sticks, so a residual over a NaN equation is NaN and passes no tolerance.
func maxViolation(worst, v float64) float64 {
	if v > worst || v != v {
		return v
	}
	return worst
}

// solveColumns runs the column half-sweep. Columns are independent given λ,
// and each batched pass accumulates every column's sum and interior slope in
// one row-major pass over the matrix (no CSC mirror needed), then advances
// every unconverged μ_j one safeguarded Newton step; passes repeat until all
// column equations hold. The return value is the worst absolute violation
// at the incoming μ — the columns' contribution to the staggered residual.
//
// A single pass (inner = 1, the relaxed sweeps) without interval totals
// keeps each column's bracket in locals: it takes one step from the
// unbounded bracket, and colBlo/colBhi, which it leaves alone, hold Run's
// checkpoint then.
func (s *System) solveColumns(lambda, mu, colSum, colASum []float64, innerTol float64, inner int) (first float64) {
	m, n := s.A.M, s.A.N
	local := inner == 1 && s.ColLo == nil
	if !local {
		for j := 0; j < n; j++ {
			s.colBlo[j] = math.Inf(-1)
			s.colBhi[j] = math.Inf(1)
		}
	}
	if s.ColLo != nil {
		first = s.pickColumnTargets(lambda, mu, colSum, colASum)
	}
	step := 1.0
	pair := s.pairedRows()
	for pass := 0; pass < inner; pass++ {
		for j := 0; j < n; j++ {
			colSum[j] = 0
			colASum[j] = 0
		}
		i := 0
		if pair {
			for ; i+1 < m; i += 2 {
				a, x0, b, y0 := s.rowPair(i)
				pairScatter(a, x0, b, y0, lambda[i], lambda[i+1], mu, colSum, colASum)
			}
		}
		for ; i < m; i++ {
			r := s.row(i)
			r.scatter(lambda[i], mu, colSum, colASum)
		}
		var worst float64
		moved := false
		for j := 0; j < n; j++ {
			target, diag := s.colAbs(j, lambda)
			g := colSum[j] + diag*mu[j] - target
			worst = maxViolation(worst, math.Abs(g))
			if math.Abs(g) <= innerTol {
				continue
			}
			blo, bhi := math.Inf(-1), math.Inf(1)
			if !local {
				blo, bhi = s.colBlo[j], s.colBhi[j]
			}
			next, ok := newtonStep(mu[j], g, colASum[j]+diag, &blo, &bhi, &step)
			if !local {
				s.colBlo[j], s.colBhi[j] = blo, bhi
			}
			if ok {
				mu[j] = Relax(mu[j], next, s.sor.Omega())
				moved = true
			}
		}
		if pass == 0 && s.ColLo == nil {
			first = worst
		}
		if worst <= innerTol || !moved {
			break
		}
	}
	return first
}

// pickColumnTargets opens an interval column half-sweep. One pass scatters
// every column's sum at the incoming μ (its violation there is returned as
// the columns' staggered residual) and at μ_j = 0 into colTgt; each column
// then takes its target by complementarity, as solveRow does for rows. A
// column whose sum at μ_j = 0 lies inside its interval gets μ_j = 0 and
// keeps that sum as its target, so its equation holds exactly from the first
// Newton pass on and never moves.
func (s *System) pickColumnTargets(lambda, mu, colSum, colASum []float64) (first float64) {
	for j := range colSum {
		colSum[j] = 0
		s.colTgt[j] = 0
	}
	for i := 0; i < s.A.M; i++ {
		r := s.row(i)
		r.scatter(lambda[i], mu, colSum, colASum)
		r.scatter(lambda[i], s.zeroMu, s.colTgt, colASum)
	}
	for j, sum0 := range s.colTgt {
		first = maxViolation(first, s.colViolation(j, colSum[j], lambda, mu))
		switch {
		case sum0 < s.ColLo[j]:
			s.colTgt[j], s.colBlo[j] = s.ColLo[j], 0
		case sum0 > s.ColHi[j]:
			s.colTgt[j], s.colBhi[j] = s.ColHi[j], 0
		default:
			mu[j] = 0
		}
	}
	return first
}

// Run performs up to sweeps full row+column sweeps on (lambda, mu), both
// length M/N and updated in place (zeros are the cold start; warm duals
// continue from where they are). It stops early when the residual — the
// largest absolute row/column equation violation at the staggered iterates,
// the ∞-norm of the dual gradient — reaches tol (tol ≤ 0 never stops
// early), or after the first sweep whose residual is NaN (the duals
// diverged). observe, when non-nil, receives every sweep's index and
// residual.
//
// Exact half-sweeps (safeguarded Newton per row, batched Newton passes per
// column, each an exact two-block coordinate-ascent step on the concave
// dual, globally convergent) are what the exponential response always runs.
// Additive sweeps start in a relaxed mode instead — one linearized Newton
// step per equation, two matrix passes per sweep, the cheapest useful unit
// of dual progress — and escalate to exact half-sweeps as soon as the
// relaxed residual stalls. Mostly-interior problems therefore pay the
// single-step price per sweep, while heavily clamped ones — where single
// linearized steps can cycle across breakpoints — self-correct within a few
// sweeps. A stall is a StallWindow-sweep window whose best residual
// improves on the previous window's by less than 2%. The windows go on
// after the escalation, judging the exact sweeps against each other only,
// and Result.Stalled reports an exact window that stalled: the windows
// start at sweep 1 of a fresh System, so a caller that runs StallWindow
// sweeps per call sees each window end with its call and can stop there.
//
// The relaxed sweeps over-relax once their rate settles: each row and
// column step becomes z + ω·(z_newton − z), with ω from Young's rule read
// off the sweeps' own stall windows (see SOR). While ω > 1, each window end
// checkpoints (λ, μ); a window that stalls, or a sweep whose residual is NaN,
// rolls back to the checkpoint at ω = 1. A sweep that rolls back a NaN
// reports a residual of +Inf: the restored duals' residual is unknown until
// the next sweep. Exact sweeps never over-relax, so only plain relaxed
// sweeps escalate.
//
// colSum and colASum are caller scratch of length N (nil to allocate): the
// column half-sweep accumulates per-column sums row-major instead of
// requiring a CSC mirror, so a pass reads the matrix once and allocates
// nothing.
func (s *System) Run(lambda, mu []float64, sweeps int, tol float64, colSum, colASum []float64, observe func(int, float64)) Result {
	m, n := s.A.M, s.A.N
	colSum = resize(colSum, n)
	colASum = resize(colASum, n)
	// The checkpoint is live only through relaxed sweeps, whose one column
	// pass keeps its brackets in locals (see solveColumns), so it shares
	// the slab with the exact passes' brackets: a square system needs no
	// more scratch than the brackets alone. Interval totals' relaxed pass
	// reads the brackets pickColumnTargets sets, so there the two lie side
	// by side.
	size := max(2*n, m+n)
	if s.ColLo != nil {
		size = 2*n + m + n
	}
	s.slab = resize(s.slab, size)
	s.colBlo, s.colBhi = s.slab[size-2*n:size-n], s.slab[size-n:]
	if s.ColLo != nil {
		s.colTgt = resize(s.colTgt, n)
		s.zeroMu = resize(s.zeroMu, n) // never written: stays zero
	}
	innerTol := 0.0
	if tol > 0 {
		innerTol = tol / 4
	}
	if !s.runInit {
		s.start()
	}
	pair := s.pairedRows()
	var res Result
	for t := 1; t <= sweeps; t++ {
		res.Iterations = t
		inner := 1
		if s.runExact {
			inner = maxInner
		}
		var worst float64
		// Row half-sweep: every λ_i solve is independent given μ.
		i := 0
		if pair {
			for ; i+1 < m; i += 2 {
				first, second := s.solveRowPair(i, lambda, mu, innerTol, inner)
				worst = maxViolation(maxViolation(worst, first), second)
			}
		}
		for ; i < m; i++ {
			worst = maxViolation(worst, s.solveRow(i, lambda, mu, innerTol, inner))
		}
		worst = maxViolation(worst, s.solveColumns(lambda, mu, colSum, colASum, innerTol, inner))
		if worst != worst && s.sor.Omega() > 1 {
			s.sor.Rollback()
			s.restore(lambda, mu)
			worst = math.Inf(1)
		}
		res.Residual = worst
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
		if worst != worst {
			// Diverged: a dual reached ±Inf (an infeasible box), and a
			// NaN violation sticks, so no later sweep can converge.
			return res
		}
		// Escalate once a window's best residual stops improving on the
		// previous window's — relaxed sweeps oscillate with period 2 at
		// the staggered iterates, so consecutive-sweep comparisons would
		// misread a healthy downward trend as a stall. The first exact
		// window is judged against nothing, so an exact stall always
		// follows a run of exact sweeps.
		switch s.sor.Observe(worst, !s.runExact) {
		case WindowCheckpoint:
			ckLambda, ckMu := s.checkpoint()
			copy(ckLambda, lambda)
			copy(ckMu, mu)
		case WindowRollback:
			s.restore(lambda, mu)
		case WindowStalled:
			if s.runExact {
				res.Stalled = true
			} else {
				s.runExact = true
				s.sor.Restart()
			}
		}
	}
	return res
}

// start sets a fresh System's escalation and over-relaxation state.
func (s *System) start() {
	s.runInit = true
	s.runExact = s.Response == Exponential
	s.sor.Start(1)
}

// restore copies the over-relaxation checkpoint back into the duals.
func (s *System) restore(lambda, mu []float64) {
	ckLambda, ckMu := s.checkpoint()
	copy(lambda, ckLambda)
	copy(mu, ckMu)
}

// checkpoint returns the slab's over-relaxation checkpoint of (λ, μ).
func (s *System) checkpoint() (lambda, mu []float64) {
	m, n := s.A.M, s.A.N
	return s.slab[:m], s.slab[m : m+n]
}

// Eval writes the primal iterate x(λ,μ) implied by the duals into x
// (storage order, length Nnz) and the row/column sums into rowSum/colSum
// (nil to allocate), and returns the largest absolute row/column equation
// violation at exactly these duals — the measure a solver built on Run
// reports as its final residual.
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
		worst = maxViolation(worst, s.rowViolation(i, rowSum[i], lambda, mu))
	}
	for j := 0; j < n; j++ {
		worst = maxViolation(worst, s.colViolation(j, colSum[j], lambda, mu))
	}
	return worst
}
