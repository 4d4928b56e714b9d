package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"sea/internal/mat"
)

// GeneralProblem is the general quadratic constrained matrix problem
// (objective (1)): the weight matrices A (m×m, row totals), G (mn×mn,
// matrix entries) and B (n×n, column totals) may be fully dense, e.g.
// inverses of variance–covariance matrices.
//
// The splitting equilibration algorithm solves it through the Dafermos
// projection method (Section 3.2): each equilibration phase works on the
// diagonal problem with fixed quadratic terms diag(A), diag(G), diag(B) and
// linear terms updated from the dense-matrix gradient at the current
// iterate. Convergence requires the weight matrices to be strictly
// diagonally dominant.
type GeneralProblem struct {
	M, N int

	// X0 is the prior matrix (m×n row-major); the variable index of entry
	// (i,j) in G is i·n+j.
	X0 []float64
	// G is the mn×mn weight of the matrix deviations.
	G mat.Weight

	// S0 and D0 are the prior totals (D0 unused for Balanced; both unused
	// for IntervalTotals).
	S0, D0 []float64
	// A is the m×m weight of the row-total deviations (ElasticTotals and
	// Balanced); B the n×n weight of the column-total deviations
	// (ElasticTotals only).
	A, B mat.Weight
	// SLo/SHi and DLo/DHi are the total intervals for IntervalTotals.
	SLo, SHi, DLo, DHi []float64

	// Upper and Lower hold optional entry bounds (m×n row-major), as in
	// the diagonal problem's Ohuchi–Kaji box.
	Upper []float64
	Lower []float64

	Kind Kind
}

// Validate checks dimensions and, unless skipDominance, strict diagonal
// dominance of the weight matrices (the projection method's contraction
// condition).
func (p *GeneralProblem) Validate(skipDominance bool) error {
	if p == nil {
		return errNilProblem
	}
	if p.M <= 0 || p.N <= 0 {
		return fmt.Errorf("core: invalid dimensions %d×%d", p.M, p.N)
	}
	mn := p.M * p.N
	if len(p.X0) != mn {
		return fmt.Errorf("core: len(X0) = %d, want %d", len(p.X0), mn)
	}
	if p.G == nil || p.G.Dim() != mn {
		return fmt.Errorf("core: G must be %d×%d", mn, mn)
	}
	if p.Kind != IntervalTotals && len(p.S0) != p.M {
		return fmt.Errorf("core: len(S0) = %d, want %d", len(p.S0), p.M)
	}
	switch p.Kind {
	case FixedTotals:
		if len(p.D0) != p.N {
			return fmt.Errorf("core: len(D0) = %d, want %d", len(p.D0), p.N)
		}
		ss, sd := mat.Sum(p.S0), mat.Sum(p.D0)
		if math.Abs(ss-sd) > totalsImbalanceTol*math.Max(1, math.Abs(ss)) {
			return fmt.Errorf("core: %w: Σs⁰ = %g but Σd⁰ = %g", ErrInfeasible, ss, sd)
		}
	case ElasticTotals:
		if len(p.D0) != p.N {
			return fmt.Errorf("core: len(D0) = %d, want %d", len(p.D0), p.N)
		}
		if p.A == nil || p.A.Dim() != p.M {
			return fmt.Errorf("core: A must be %d×%d", p.M, p.M)
		}
		if p.B == nil || p.B.Dim() != p.N {
			return fmt.Errorf("core: B must be %d×%d", p.N, p.N)
		}
	case Balanced:
		if p.M != p.N {
			return fmt.Errorf("core: balanced problem must be square, got %d×%d", p.M, p.N)
		}
		if p.A == nil || p.A.Dim() != p.N {
			return fmt.Errorf("core: A must be %d×%d", p.N, p.N)
		}
	case IntervalTotals:
		if err := validInterval("S", p.SLo, p.SHi, p.M); err != nil {
			return err
		}
		if err := validInterval("D", p.DLo, p.DHi, p.N); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown Kind %d", p.Kind)
	}
	if !skipDominance {
		for name, w := range map[string]mat.Weight{"G": p.G, "A": p.A, "B": p.B} {
			if w == nil {
				continue
			}
			if margin := mat.DominanceMargin(w); margin <= 0 {
				return fmt.Errorf("core: weight matrix %s is not strictly diagonally dominant (margin %g); the projection method may diverge — fix the data or set SkipDominanceCheck", name, margin)
			}
		}
	}
	return nil
}

// FeasibleStart returns a feasible initial point (x, s, d) for the problem
// (Step 0 of Section 3.2.1). For fixed totals it uses the proportional fill
// x_ij = s⁰_i·d⁰_j / Σs⁰; for elastic totals the clamped prior with its own
// sums; for balanced problems the symmetrized clamped prior, whose row and
// column sums coincide.
func (p *GeneralProblem) FeasibleStart() (x, s, d []float64) {
	m, n := p.M, p.N
	x = make([]float64, m*n)
	s = make([]float64, m)
	d = make([]float64, n)
	switch p.Kind {
	case FixedTotals:
		total := mat.Sum(p.S0)
		copy(s, p.S0)
		copy(d, p.D0)
		if total <= 0 {
			return
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				x[i*n+j] = p.S0[i] * p.D0[j] / total
			}
		}
	case ElasticTotals:
		for k, v := range p.X0 {
			if v < 0 {
				v = 0
			}
			if p.Upper != nil && v > p.Upper[k] {
				v = p.Upper[k]
			}
			x[k] = v
		}
		for i := 0; i < m; i++ {
			s[i] = mat.Sum(x[i*n : (i+1)*n])
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				d[j] += x[i*n+j]
			}
		}
	case Balanced:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := (p.X0[i*n+j] + p.X0[j*n+i]) / 2
				if v < 0 {
					v = 0
				}
				if p.Upper != nil && v > p.Upper[i*n+j] {
					v = p.Upper[i*n+j]
				}
				x[i*n+j] = v
			}
		}
		for i := 0; i < n; i++ {
			s[i] = mat.Sum(x[i*n : (i+1)*n])
		}
		copy(d, s)
	case IntervalTotals:
		// Start from the clamped prior; the first column phase restores
		// interval feasibility exactly.
		for k, v := range p.X0 {
			if v < 0 {
				v = 0
			}
			if p.Upper != nil && v > p.Upper[k] {
				v = p.Upper[k]
			}
			x[k] = v
		}
		for i := 0; i < m; i++ {
			s[i] = math.Min(math.Max(mat.Sum(x[i*n:(i+1)*n]), p.SLo[i]), p.SHi[i])
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				d[j] += x[i*n+j]
			}
		}
		for j := 0; j < n; j++ {
			d[j] = math.Min(math.Max(d[j], p.DLo[j]), p.DHi[j])
		}
	}
	return
}

// Objective evaluates the general objective at (x, s, d).
func (p *GeneralProblem) Objective(x, s, d []float64) float64 {
	mn := p.M * p.N
	dev := make([]float64, mn)
	for k := range dev {
		dev[k] = x[k] - p.X0[k]
	}
	tmp := make([]float64, mn)
	p.G.MulVec(tmp, dev)
	obj := mat.Dot(dev, tmp)
	switch p.Kind {
	case ElasticTotals:
		obj += quadForm(p.A, s, p.S0)
		obj += quadForm(p.B, d, p.D0)
	case Balanced:
		obj += quadForm(p.A, s, p.S0)
	}
	return obj
}

// quadForm computes (v−v0)ᵀ W (v−v0).
func quadForm(w mat.Weight, v, v0 []float64) float64 {
	n := w.Dim()
	dev := make([]float64, n)
	for i := range dev {
		dev[i] = v[i] - v0[i]
	}
	tmp := make([]float64, n)
	w.MulVec(tmp, dev)
	return mat.Dot(dev, tmp)
}

// SolveGeneral runs the splitting equilibration algorithm for general
// problems (Section 3.2.1, Figure 4). Each half-iteration diagonalizes the
// dense weight matrices at the current iterate — updating only the linear
// terms of subproblem (79) — and performs one parallel exact-equilibration
// phase (rows, then columns) of the resulting diagonal problem, carrying the
// dual variables across phases exactly as the diagonal SEA does. The single
// serial phase is the convergence verification |x^t − x^{t−1}| ≤ ε, done
// once per full iteration (the structural advantage over RC, whose
// projection stages each verify their own convergence serially; cf.
// Figures 4 and 6 and Table 9).
//
// At a fixed point the subproblem multipliers are the multipliers of the
// general problem, so the returned Solution's Lambda and Mu satisfy the
// general KKT system (see CheckKKTGeneral).
//
// Cancellation is observed between phases: when ctx is cancelled or its
// deadline passes, the solve returns within one outer iteration with
// ctx.Err(). A nil ctx means context.Background.
func SolveGeneral(ctx context.Context, p *GeneralProblem, opts *Options) (*Solution, error) {
	o := opts.WithDefaults()
	if o.Objective != ObjectiveQuadratic {
		return nil, fmt.Errorf("core: SolveGeneral minimizes the quadratic objective only; route Objective=%v through the facade's \"entropy\" solver", o.Objective)
	}
	if err := p.Validate(o.SkipDominanceCheck); err != nil {
		return nil, err
	}
	if err := o.Arena.acquire(); err != nil {
		return nil, err
	}
	defer o.Arena.release()
	m, n := p.M, p.N
	mn := m * n
	rho := o.Relaxation

	// The mutable diagonalized problem: fixed quadratic terms diag(·)/ρ,
	// linear terms (equivalent priors) rewritten before every phase.
	dp := &DiagonalProblem{
		M: m, N: n,
		X0:    make([]float64, mn),
		Gamma: make([]float64, mn),
		Kind:  p.Kind,
		Upper: p.Upper,
		Lower: p.Lower,
	}
	for k := 0; k < mn; k++ {
		g := p.G.Diag(k)
		if !(g > 0) {
			return nil, fmt.Errorf("core: G diagonal entry %d is %g, want positive", k, g)
		}
		dp.Gamma[k] = g / rho
	}
	switch p.Kind {
	case FixedTotals:
		dp.S0, dp.D0 = p.S0, p.D0
	case ElasticTotals:
		dp.S0 = make([]float64, m)
		dp.D0 = make([]float64, n)
		dp.Alpha = make([]float64, m)
		dp.Beta = make([]float64, n)
		for i := 0; i < m; i++ {
			dp.Alpha[i] = p.A.Diag(i) / rho
		}
		for j := 0; j < n; j++ {
			dp.Beta[j] = p.B.Diag(j) / rho
		}
	case Balanced:
		dp.S0 = make([]float64, n)
		dp.Alpha = make([]float64, n)
		for j := 0; j < n; j++ {
			dp.Alpha[j] = p.A.Diag(j) / rho
		}
	case IntervalTotals:
		dp.SLo, dp.SHi = p.SLo, p.SHi
		dp.DLo, dp.DHi = p.DLo, p.DHi
	}

	st := newDiagState(ctx, dp, o)
	defer st.close()
	x, s, d := p.FeasibleStart()
	copy(st.x, x)

	xdev := make([]float64, mn)
	gx := make([]float64, mn)
	var sdev, gs, ddev, gd []float64
	if p.Kind != FixedTotals {
		sdev = make([]float64, m)
		gs = make([]float64, m)
		if p.Kind == ElasticTotals {
			ddev = make([]float64, n)
			gd = make([]float64, n)
		}
	}

	// updateLinear rewrites the diagonalized problem's equivalent priors
	// from the current iterate: z = x − ρ·[G(x−x⁰)]/diag(G) (and the totals
	// analogues). The dense product is computed in parallel over the rows
	// of G; its cost belongs to the equilibration phase that consumes it
	// (per-row/-column shares), which is how the trace attributes it.
	updateLinear := func() {
		for k := 0; k < mn; k++ {
			xdev[k] = st.x[k] - p.X0[k]
		}
		st.runner.ForChunks(mn, func(_, lo, hi int) {
			p.G.MulVecRange(gx, xdev, lo, hi)
		})
		for k := 0; k < mn; k++ {
			dp.X0[k] = st.x[k] - gx[k]/dp.Gamma[k]
		}
		st.ev.Ops += int64(mn) * int64(mn)
		switch p.Kind {
		case ElasticTotals:
			for i := 0; i < m; i++ {
				sdev[i] = s[i] - p.S0[i]
			}
			p.A.MulVec(gs, sdev)
			for i := 0; i < m; i++ {
				dp.S0[i] = s[i] - gs[i]/dp.Alpha[i]
			}
			for j := 0; j < n; j++ {
				ddev[j] = d[j] - p.D0[j]
			}
			p.B.MulVec(gd, ddev)
			for j := 0; j < n; j++ {
				dp.D0[j] = d[j] - gd[j]/dp.Beta[j]
			}
		case Balanced:
			for i := 0; i < n; i++ {
				sdev[i] = s[i] - p.S0[i]
			}
			p.A.MulVec(gs, sdev)
			for i := 0; i < n; i++ {
				dp.S0[i] = s[i] - gs[i]/dp.Alpha[i]
			}
		}
	}

	xPrev := mat.Clone(st.x)
	var converged bool
	var residual float64 = math.NaN()
	iterations := 0
	obs := o.Trace
	for t := 1; t <= o.MaxIterations; t++ {
		if err := st.ctx.Err(); err != nil {
			return nil, err
		}
		runtime.Gosched() // see diagState.run
		iterations = t
		st.iterations = t // drives the warm-start slot policy in the phases
		st.beginIteration("sea-general")
		st.ev.Inner = 2
		var mark time.Time
		if obs != nil {
			mark = time.Now()
		}

		updateLinear()
		if err := st.rowPhase(); err != nil {
			return nil, fmt.Errorf("core: general iteration %d: %w", t, err)
		}
		st.supplies(s)
		if obs != nil {
			now := time.Now()
			st.ev.RowPhase = now.Sub(mark)
			mark = now
		}

		updateLinear() // the column phase gathers the rewritten prior live
		if err := st.colPhase(); err != nil {
			return nil, fmt.Errorf("core: general iteration %d: %w", t, err)
		}
		st.demands(d)
		if p.Kind == Balanced {
			st.supplies(s)
		}
		if obs != nil {
			now := time.Now()
			st.ev.ColPhase = now.Sub(mark)
			mark = now
		}

		// Fold the dense linear-update cost into the phase's task costs:
		// each row owns n rows of G (n·mn operations), each column m.
		if st.costs != nil {
			ph := &st.costs[0]
			for i := range ph.Row {
				ph.Row[i] += int64(n) * int64(mn)
			}
			for j := range ph.Col {
				ph.Col[j] += int64(m) * int64(mn)
			}
		}

		// Serial convergence verification, once per full iteration.
		checked := t%o.CheckEvery == 0
		if checked {
			residual = mat.MaxAbsDiff(st.x, xPrev)
			st.ev.SerialOps += int64(mn)
			if st.costs != nil {
				st.costs[0].Serial = int64(mn)
			}
			if residual <= o.Epsilon {
				converged = true
			}
		}
		if obs != nil {
			st.ev.CheckPhase = time.Since(mark)
			st.ev.Checked = checked
			st.ev.Residual = math.NaN()
			if checked {
				st.ev.Residual = residual
			}
			obs.ObserveIteration(st.ev)
		}
		if converged {
			break
		}
		copy(xPrev, st.x)
	}

	sol := &Solution{
		X: mat.Clone(st.x), S: mat.Clone(s), D: mat.Clone(d),
		Lambda: mat.Clone(st.lambda), Mu: mat.Clone(st.mu),
		Iterations:      iterations,
		InnerIterations: 2 * iterations, // equilibration half-sweeps
		Converged:       converged,
		Residual:        residual,
	}
	sol.Objective = p.Objective(sol.X, sol.S, sol.D)
	sol.DualValue = math.NaN() // general dual not tracked; use CheckKKTGeneral
	if !converged {
		return sol, fmt.Errorf("%w after %d general iterations", ErrNotConverged, o.MaxIterations)
	}
	return sol, nil
}

// CheckKKTGeneral evaluates the KKT conditions of the general problem at
// sol: feasibility and the variational conditions
// 2[G(x−x⁰)]_ij − λ_i − μ_j ⊥ x_ij, 2[A(s−s⁰)]_i + λ_i = 0,
// 2[B(d−d⁰)]_j + μ_j = 0.
func CheckKKTGeneral(p *GeneralProblem, sol *Solution) KKTReport {
	m, n := p.M, p.N
	mn := m * n
	var r KKTReport

	rowSum := make([]float64, m)
	colSum := make([]float64, n)
	for i := 0; i < m; i++ {
		rowSum[i] = mat.Sum(sol.X[i*n : (i+1)*n])
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			colSum[j] += sol.X[i*n+j]
		}
	}
	for i := 0; i < m; i++ {
		if v := math.Abs(rowSum[i] - sol.S[i]); v > r.MaxRowViolation {
			r.MaxRowViolation = v
		}
	}
	for j := 0; j < n; j++ {
		if v := math.Abs(colSum[j] - sol.D[j]); v > r.MaxColViolation {
			r.MaxColViolation = v
		}
	}
	lowerOf := func(k int) float64 {
		if p.Lower != nil {
			return p.Lower[k]
		}
		return 0
	}
	for k, v := range sol.X {
		if under := v - lowerOf(k); under < r.MinX {
			r.MinX = under
		}
		if p.Upper != nil {
			if over := v - p.Upper[k]; over > r.MaxBoundViolation {
				r.MaxBoundViolation = over
			}
		}
	}

	dev := make([]float64, mn)
	for k := range dev {
		dev[k] = sol.X[k] - p.X0[k]
	}
	grad := make([]float64, mn)
	p.G.MulVec(grad, dev)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			k := i*n + j
			gk := 2*grad[k] - sol.Lambda[i] - sol.Mu[j]
			scale := 1 + math.Abs(sol.Lambda[i]) + math.Abs(sol.Mu[j]) + 2*math.Abs(grad[k])
			var viol float64
			switch {
			case sol.X[k] <= lowerOf(k)+activeTol*scale:
				viol = math.Max(0, -gk)
			case p.Upper != nil && sol.X[k] >= p.Upper[k]-activeTol*scale:
				viol = math.Max(0, gk)
			default:
				viol = math.Abs(gk)
			}
			if viol > r.MaxStationarity {
				r.MaxStationarity = viol
			}
		}
	}

	switch p.Kind {
	case ElasticTotals:
		r.MaxTotalsStationarity = math.Max(
			totalsStationarity(p.A, sol.S, p.S0, sol.Lambda),
			totalsStationarity(p.B, sol.D, p.D0, sol.Mu))
	case Balanced:
		lm := make([]float64, n)
		for j := 0; j < n; j++ {
			lm[j] = sol.Lambda[j] + sol.Mu[j]
		}
		r.MaxTotalsStationarity = totalsStationarity(p.A, sol.S, p.S0, lm)
	case IntervalTotals:
		for i := 0; i < m; i++ {
			if v := intervalMultViolation(rowSum[i], p.SLo[i], p.SHi[i], sol.Lambda[i]); v > r.MaxTotalsStationarity {
				r.MaxTotalsStationarity = v
			}
		}
		for j := 0; j < n; j++ {
			if v := intervalMultViolation(colSum[j], p.DLo[j], p.DHi[j], sol.Mu[j]); v > r.MaxTotalsStationarity {
				r.MaxTotalsStationarity = v
			}
		}
	}
	return r
}

// totalsStationarity returns max_i |2[W(v−v0)]_i + mult_i|.
func totalsStationarity(w mat.Weight, v, v0, mult []float64) float64 {
	n := w.Dim()
	dev := make([]float64, n)
	for i := range dev {
		dev[i] = v[i] - v0[i]
	}
	g := make([]float64, n)
	w.MulVec(g, dev)
	var worst float64
	for i := range g {
		if a := math.Abs(2*g[i] + mult[i]); a > worst {
			worst = a
		}
	}
	return worst
}
