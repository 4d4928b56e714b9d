// Package core implements the Splitting Equilibration Algorithm (SEA) of
// Nagurney and Eydeland for the full spectrum of constrained matrix
// problems: diagonal and general (dense-weight) objectives, with fixed,
// elastic (estimated), or balanced (social accounting matrix) row and column
// totals.
//
// The diagonal solver is dual block-coordinate ascent on the explicit dual
// function ζ_l(λ,μ) of the paper's Section 3.1: a row equilibration phase
// solves m independent single-constraint subproblems in closed form
// (package equilibrate), a column equilibration phase solves n, and the two
// alternate until the constraint residuals — which equal the gradient of the
// dual — vanish. Both phases are embarrassingly parallel.
//
// The general solver (Section 3.2) wraps the diagonal solver in the Dafermos
// projection method: each outer iteration diagonalizes the dense weight
// matrices A, G, B and updates only linear terms.
package core

import (
	"errors"
	"fmt"
	"math"

	"sea/internal/mat"
)

// Kind selects the treatment of the row and column totals, i.e. which of the
// paper's three problem classes is being solved.
type Kind int

const (
	// FixedTotals: s = s⁰ and d = d⁰ are known with certainty
	// (objective (13)/(10); constraints (11), (12)).
	FixedTotals Kind = iota
	// ElasticTotals: s and d are estimated along with the matrix
	// (objective (5)/(1); constraints (2), (3)).
	ElasticTotals
	// Balanced: the social accounting matrix case — m = n and the row i
	// total equals the column i total, both estimated
	// (objective (9)/(6); constraints (7), (8)).
	Balanced
	// IntervalTotals: each row and column total is only known to lie in an
	// interval, SLo_i ≤ Σ_j x_ij ≤ SHi_i and DLo_j ≤ Σ_i x_ij ≤ DHi_j —
	// the Harrigan–Buchanan (1984) input/output estimation variant the
	// paper cites in Section 2.
	IntervalTotals
)

func (k Kind) String() string {
	switch k {
	case FixedTotals:
		return "fixed"
	case ElasticTotals:
		return "elastic"
	case Balanced:
		return "balanced"
	case IntervalTotals:
		return "interval"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DiagonalProblem is a diagonal quadratic constrained matrix problem:
//
//	min  Σ_i α_i (s_i−s⁰_i)² + Σ_ij γ_ij (x_ij−x⁰_ij)² + Σ_j β_j (d_j−d⁰_j)²
//	s.t. Σ_j x_ij = s_i,  Σ_i x_ij = d_j,  0 ≤ x_ij (≤ u_ij)
//
// with the totals fixed, elastic, or balanced according to Kind. All dense
// m×n data is stored row-major.
type DiagonalProblem struct {
	M, N int

	// X0 is the prior matrix x⁰ (m×n row-major). Entries may be any sign,
	// though applications use nonnegative priors.
	X0 []float64
	// Gamma holds the strictly positive weights γ_ij (m×n row-major).
	Gamma []float64

	// S0 and D0 are the prior row and column totals. For Balanced problems
	// D0 is ignored (the shared totals are S0); for IntervalTotals both
	// are ignored in favour of the interval bounds below.
	S0, D0 []float64
	// Alpha and Beta are the strictly positive total weights α_i, β_j.
	// They are required for ElasticTotals (both) and Balanced (Alpha only)
	// and ignored for FixedTotals and IntervalTotals.
	Alpha, Beta []float64

	// SLo/SHi and DLo/DHi are the row- and column-total intervals for
	// IntervalTotals problems (ignored otherwise). Entries may repeat a
	// value to pin a total exactly, and SHi/DHi entries may be
	// math.Inf(1).
	SLo, SHi, DLo, DHi []float64

	// Upper, if non-nil, holds upper bounds u_ij ≥ 0 (use math.Inf(1) for
	// unbounded entries; u_ij equal to the lower bound pins the cell).
	// Lower, if non-nil, holds lower bounds 0 ≤ l_ij ≤ u_ij, replacing the
	// plain nonnegativity constraint (4). Together they are the full
	// Ohuchi–Kaji (1984) box extension; the classical problem leaves both
	// nil.
	Upper []float64
	Lower []float64

	// Pattern, if non-nil, switches the per-cell arrays (X0, Gamma, Upper,
	// Lower) to CSR storage: each has length Pattern.Nnz() and is indexed by
	// stored position instead of i·n+j. Cells outside the pattern are
	// structurally zero — pinned at x = 0 — and are skipped by both solve
	// phases. See Storage, Sparsify, and Densify. Solutions of a CSR problem
	// carry X in the same stored order (length nnz).
	Pattern *Pattern

	Kind Kind
}

// Sentinel errors returned by problem validation and the solvers.
var (
	// ErrNotConverged is returned (wrapped) when the iteration limit is hit
	// before the convergence criterion is met. The accompanying Solution is
	// still the best iterate found.
	ErrNotConverged = errors.New("core: not converged within iteration limit")
	// ErrInfeasible is returned when the constraint set is empty, e.g.
	// fixed totals with Σs⁰ ≠ Σd⁰.
	ErrInfeasible = errors.New("core: infeasible problem")
)

// NewFixed constructs a fixed-totals diagonal problem (objective (13)).
func NewFixed(m, n int, x0, gamma, s0, d0 []float64) (*DiagonalProblem, error) {
	p := &DiagonalProblem{M: m, N: n, X0: x0, Gamma: gamma, S0: s0, D0: d0, Kind: FixedTotals}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewElastic constructs an elastic-totals diagonal problem (objective (5)).
func NewElastic(m, n int, x0, gamma, s0, alpha, d0, beta []float64) (*DiagonalProblem, error) {
	p := &DiagonalProblem{
		M: m, N: n, X0: x0, Gamma: gamma,
		S0: s0, Alpha: alpha, D0: d0, Beta: beta,
		Kind: ElasticTotals,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewBalanced constructs a SAM estimation problem (objective (9)): an n×n
// matrix whose row i and column i totals are equal and estimated with
// weights alpha around the priors s0.
func NewBalanced(n int, x0, gamma, s0, alpha []float64) (*DiagonalProblem, error) {
	p := &DiagonalProblem{
		M: n, N: n, X0: x0, Gamma: gamma,
		S0: s0, Alpha: alpha,
		Kind: Balanced,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewInterval constructs an interval-totals problem (the Harrigan–Buchanan
// variant): minimize the weighted deviation from the prior subject to
// slo ≤ rowsums ≤ shi and dlo ≤ colsums ≤ dhi.
func NewInterval(m, n int, x0, gamma, slo, shi, dlo, dhi []float64) (*DiagonalProblem, error) {
	p := &DiagonalProblem{
		M: m, N: n, X0: x0, Gamma: gamma,
		SLo: slo, SHi: shi, DLo: dlo, DHi: dhi,
		Kind: IntervalTotals,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// totalsImbalanceTol is the relative tolerance applied to Σs⁰ vs Σd⁰ for
// fixed-totals problems.
const totalsImbalanceTol = 1e-8

// ValidationError is the error DiagonalProblem.Validate returns. Its text is
// the failed check's own and it unwraps to that check's error, so
// errors.Is(err, ErrInfeasible) still holds for an empty constraint set. A
// caller that leaves validation to SolveDiagonal uses errors.As to tell a
// rejected problem from a failed solve.
type ValidationError struct{ err error }

func (e *ValidationError) Error() string { return e.err.Error() }
func (e *ValidationError) Unwrap() error { return e.err }

// errNilProblem is what both problems' Validate report for a nil receiver.
var errNilProblem = errors.New("core: nil problem")

// Validate checks dimensions, weight positivity and, for fixed totals,
// feasibility of the transportation polytope. For CSR problems the pattern's
// structural invariants (row-pointer monotonicity, ordered and deduplicated
// column indices) are checked first and every per-cell array must have
// length nnz. A failure is a *ValidationError.
func (p *DiagonalProblem) Validate() error {
	if err := p.validate(); err != nil {
		return &ValidationError{err}
	}
	return nil
}

func (p *DiagonalProblem) validate() error {
	if p == nil {
		return errNilProblem
	}
	if p.M <= 0 || p.N <= 0 {
		return fmt.Errorf("core: invalid dimensions %d×%d", p.M, p.N)
	}
	nv := p.M * p.N
	if p.Pattern != nil {
		if err := p.Pattern.Validate(p.M, p.N); err != nil {
			return err
		}
		nv = p.Pattern.Nnz()
	}
	if len(p.X0) != nv {
		return fmt.Errorf("core: len(X0) = %d, want %d", len(p.X0), nv)
	}
	for k, v := range p.X0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			i, j := p.cell(k)
			return fmt.Errorf("core: X0[%d,%d] = %v, want finite", i, j, v)
		}
	}
	if len(p.Gamma) != nv {
		return fmt.Errorf("core: len(Gamma) = %d, want %d", len(p.Gamma), nv)
	}
	for k, g := range p.Gamma {
		if !(g > 0) || math.IsInf(g, 1) || math.IsNaN(g) {
			i, j := p.cell(k)
			return fmt.Errorf("core: Gamma[%d,%d] = %v, want finite positive", i, j, g)
		}
	}
	if p.Upper != nil {
		if len(p.Upper) != nv {
			return fmt.Errorf("core: len(Upper) = %d, want %d", len(p.Upper), nv)
		}
		for k, u := range p.Upper {
			if !(u >= 0) {
				i, j := p.cell(k)
				return fmt.Errorf("core: Upper[%d,%d] = %v, want nonnegative", i, j, u)
			}
		}
	}
	if p.Lower != nil {
		if len(p.Lower) != nv {
			return fmt.Errorf("core: len(Lower) = %d, want %d", len(p.Lower), nv)
		}
		for k, l := range p.Lower {
			if l < 0 || math.IsNaN(l) {
				i, j := p.cell(k)
				return fmt.Errorf("core: Lower[%d,%d] = %v, want >= 0", i, j, l)
			}
			if p.Upper != nil && l > p.Upper[k] {
				i, j := p.cell(k)
				return fmt.Errorf("core: %w: empty box [%g,%g] at (%d,%d)", ErrInfeasible, l, p.Upper[k], i, j)
			}
		}
	}
	if p.Kind != IntervalTotals {
		if len(p.S0) != p.M {
			return fmt.Errorf("core: len(S0) = %d, want %d", len(p.S0), p.M)
		}
		if err := finiteTotals("S0", p.S0); err != nil {
			return err
		}
		if p.Kind != Balanced {
			if err := finiteTotals("D0", p.D0); err != nil {
				return err
			}
		}
	}

	switch p.Kind {
	case FixedTotals:
		if len(p.D0) != p.N {
			return fmt.Errorf("core: len(D0) = %d, want %d", len(p.D0), p.N)
		}
		for i, s := range p.S0 {
			if s < 0 {
				return fmt.Errorf("core: %w: S0[%d] = %g < 0", ErrInfeasible, i, s)
			}
		}
		for j, d := range p.D0 {
			if d < 0 {
				return fmt.Errorf("core: %w: D0[%d] = %g < 0", ErrInfeasible, j, d)
			}
		}
		ss, sd := mat.Sum(p.S0), mat.Sum(p.D0)
		if math.Abs(ss-sd) > totalsImbalanceTol*math.Max(1, math.Abs(ss)) {
			return fmt.Errorf("core: %w: Σs⁰ = %g but Σd⁰ = %g", ErrInfeasible, ss, sd)
		}
	case ElasticTotals:
		if len(p.D0) != p.N {
			return fmt.Errorf("core: len(D0) = %d, want %d", len(p.D0), p.N)
		}
		if err := positiveWeights("Alpha", p.Alpha, p.M); err != nil {
			return err
		}
		if err := positiveWeights("Beta", p.Beta, p.N); err != nil {
			return err
		}
	case Balanced:
		if p.M != p.N {
			return fmt.Errorf("core: balanced problem must be square, got %d×%d", p.M, p.N)
		}
		if err := positiveWeights("Alpha", p.Alpha, p.N); err != nil {
			return err
		}
	case IntervalTotals:
		if err := validInterval("S", p.SLo, p.SHi, p.M); err != nil {
			return err
		}
		if err := validInterval("D", p.DLo, p.DHi, p.N); err != nil {
			return err
		}
		// Transportation feasibility with interval margins: the total-mass
		// intervals must intersect (up to rounding in the sums).
		sLo, sHi := mat.Sum(p.SLo), mat.Sum(p.SHi)
		dLo, dHi := mat.Sum(p.DLo), mat.Sum(p.DHi)
		tol := totalsImbalanceTol * math.Max(1, math.Abs(sHi)+math.Abs(dHi))
		if sLo > dHi+tol || dLo > sHi+tol {
			return fmt.Errorf("core: %w: row-total mass [%g,%g] and column-total mass [%g,%g] do not intersect",
				ErrInfeasible, sLo, sHi, dLo, dHi)
		}
	default:
		return fmt.Errorf("core: unknown Kind %d", p.Kind)
	}
	return nil
}

// validInterval checks one side's interval arrays.
func validInterval(name string, lo, hi []float64, n int) error {
	if len(lo) != n || len(hi) != n {
		return fmt.Errorf("core: len(%sLo/%sHi) = %d/%d, want %d", name, name, len(lo), len(hi), n)
	}
	for i := range lo {
		if lo[i] < 0 || math.IsNaN(lo[i]) {
			return fmt.Errorf("core: %w: %sLo[%d] = %g", ErrInfeasible, name, i, lo[i])
		}
		if hi[i] < lo[i] || math.IsNaN(hi[i]) {
			return fmt.Errorf("core: %w: %s interval %d is [%g,%g]", ErrInfeasible, name, i, lo[i], hi[i])
		}
	}
	return nil
}

// finiteTotals rejects NaN or infinite prior totals (length mismatches are
// caught by the per-Kind checks, so only the entries are verified here).
func finiteTotals(name string, t []float64) error {
	for i, v := range t {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: %s[%d] = %v, want finite", name, i, v)
		}
	}
	return nil
}

func positiveWeights(name string, w []float64, n int) error {
	if len(w) != n {
		return fmt.Errorf("core: len(%s) = %d, want %d", name, len(w), n)
	}
	for i, v := range w {
		if !(v > 0) || math.IsInf(v, 1) || math.IsNaN(v) {
			return fmt.Errorf("core: %s[%d] = %v, want finite positive", name, i, v)
		}
	}
	return nil
}

// Objective evaluates the problem's objective Θ_l at (x, s, d). For
// FixedTotals only x matters; for Balanced, s holds the shared totals and d
// is ignored.
func (p *DiagonalProblem) Objective(x, s, d []float64) float64 {
	var obj float64
	for k, v := range x {
		obj += p.objectiveCell(k, v)
	}
	return p.addTotalsPenalty(obj, s, d)
}

// objectiveCell is cell k's term γ_k(x_k−x⁰_k)² of the quadratic objective.
func (p *DiagonalProblem) objectiveCell(k int, v float64) float64 {
	dev := v - p.X0[k]
	return p.Gamma[k] * dev * dev
}

// addTotalsPenalty adds the quadratic penalties on estimated totals to obj,
// term by term in row-then-column order. Fixed and interval totals carry
// none; for Balanced, s holds the shared totals and d is ignored.
func (p *DiagonalProblem) addTotalsPenalty(obj float64, s, d []float64) float64 {
	switch p.Kind {
	case ElasticTotals:
		for i, v := range s {
			dev := v - p.S0[i]
			obj += p.Alpha[i] * dev * dev
		}
		for j, v := range d {
			dev := v - p.D0[j]
			obj += p.Beta[j] * dev * dev
		}
	case Balanced:
		for i, v := range s {
			dev := v - p.S0[i]
			obj += p.Alpha[i] * dev * dev
		}
	}
	return obj
}

// KLObjective evaluates the entropy-family objective at (x, s, d): the
// weighted generalized Kullback–Leibler divergence of x from the prior,
//
//	Σ_ij γ_ij (x_ij·ln(x_ij/x⁰_ij) − x_ij + x⁰_ij)
//
// plus the same quadratic penalties on elastic totals as the quadratic
// family (so the elastic dual relations s = s⁰ − λ/(2α) carry over
// unchanged). The divergence is +∞ outside its domain: negative entries, or
// a positive entry over a zero prior cell.
func (p *DiagonalProblem) KLObjective(x, s, d []float64) float64 {
	var obj float64
	for k, v := range x {
		x0 := p.X0[k]
		switch {
		case v < 0 || x0 < 0:
			return math.Inf(1)
		case v == 0:
			obj += p.Gamma[k] * x0
		case x0 == 0:
			return math.Inf(1)
		default:
			obj += p.Gamma[k] * (v*math.Log(v/x0) - v + x0)
		}
	}
	return p.addTotalsPenalty(obj, s, d)
}

// ObjectiveFor evaluates the objective of the given family at (x, s, d).
func (p *DiagonalProblem) ObjectiveFor(obj Objective, x, s, d []float64) float64 {
	if obj == ObjectiveEntropy {
		return p.KLObjective(x, s, d)
	}
	return p.Objective(x, s, d)
}

// clampEntry applies entry k's box constraints to a stationary value.
func (p *DiagonalProblem) clampEntry(k int, v float64) float64 {
	lo := 0.0
	if p.Lower != nil {
		lo = p.Lower[k]
	}
	if v < lo {
		return lo
	}
	if p.Upper != nil && v > p.Upper[k] {
		return p.Upper[k]
	}
	return v
}

// cell maps a stored position k to its (row, column) coordinates in either
// storage layout; used by diagnostics and error messages.
func (p *DiagonalProblem) cell(k int) (i, j int) {
	if p.Pattern != nil {
		return p.Pattern.Cell(k)
	}
	return k / p.N, k % p.N
}

// RowSums computes Σ_j x_ij into dst (length M). x is in the problem's
// storage order (length m·n dense, nnz CSR).
func (p *DiagonalProblem) RowSums(x, dst []float64) {
	if pt := p.Pattern; pt != nil {
		for i := 0; i < p.M; i++ {
			dst[i] = mat.Sum(x[pt.RowPtr[i]:pt.RowPtr[i+1]])
		}
		return
	}
	for i := 0; i < p.M; i++ {
		dst[i] = mat.Sum(x[i*p.N : (i+1)*p.N])
	}
}

// ColSums computes Σ_i x_ij into dst (length N). x is in the problem's
// storage order.
func (p *DiagonalProblem) ColSums(x, dst []float64) {
	mat.Fill(dst, 0)
	if pt := p.Pattern; pt != nil {
		for k, v := range x {
			dst[pt.ColIdx[k]] += v
		}
		return
	}
	for i := 0; i < p.M; i++ {
		row := x[i*p.N : (i+1)*p.N]
		for j, v := range row {
			dst[j] += v
		}
	}
}
