package core

import "math"

// DualValue evaluates the dual function ζ_l(λ, μ) of the paper's Section 3.1
// — the minimum of the Lagrangian over x ≥ 0 (and the free totals). At the
// optimal multipliers it equals the optimal objective (strong duality), so
// Objective − DualValue is a computable optimality gap.
//
// The evaluation substitutes the closed-form Lagrangian minimizer, which
// also covers the upper-bounded (Ohuchi–Kaji) extension the algebraic
// formulas (24), (41), (51) do not.
func DualValue(p *DiagonalProblem, lambda, mu []float64) float64 {
	_, z := p.cellSums(nil, lambda, mu)
	return p.addTotalsDual(z, lambda, mu)
}

// cellSums returns the cell parts of Objective at x and of DualValue at
// (λ, μ) from one sweep over the stored cells; a nil x skips the objective.
// Each sum keeps its own accumulator and adds the cells in storage order, as
// the standalone evaluations do, so both are bit-identical to them.
func (p *DiagonalProblem) cellSums(x, lambda, mu []float64) (obj, z float64) {
	m, n := p.M, p.N
	if pt := p.Pattern; pt != nil {
		// Structural zeros are pinned in [0,0]: their minimizer is 0, their
		// deviation 0, so they contribute exactly nothing — skipping them is
		// an identity, not an approximation.
		for i := 0; i < m; i++ {
			li := lambda[i]
			for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
				t := li + mu[pt.ColIdx[k]]
				g, x0 := p.Gamma[k], p.X0[k]
				z += dualCell(g, x0, p.clampEntry(k, x0+t/(2*g)), t)
				if x != nil {
					obj += p.objectiveCell(k, x[k])
				}
			}
		}
		return obj, z
	}
	for i := 0; i < m; i++ {
		li := lambda[i]
		for j := 0; j < n; j++ {
			k := i*n + j
			t := li + mu[j]
			g, x0 := p.Gamma[k], p.X0[k]
			z += dualCell(g, x0, p.clampEntry(k, x0+t/(2*g)), t)
			if x != nil {
				obj += p.objectiveCell(k, x[k])
			}
		}
	}
	return obj, z
}

// dualCell is a cell's Lagrangian term γ(x̂−x⁰)² − t·x̂ at t = λ_i + μ_j,
// given its minimizer x̂ = clamp(x⁰ + t/(2γ)). It takes the cell's values
// rather than its index so that it, and the clamp beside it, inline into
// the sweep.
func dualCell(g, x0, xh, t float64) float64 {
	dev := xh - x0
	return g*dev*dev - t*xh
}

// addTotalsDual adds the totals' part of ζ — each constraint's minimum over
// its total — to z, term by term in row-then-column order.
func (p *DiagonalProblem) addTotalsDual(z float64, lambda, mu []float64) float64 {
	m, n := p.M, p.N
	switch p.Kind {
	case FixedTotals:
		for i := 0; i < m; i++ {
			z += lambda[i] * p.S0[i]
		}
		for j := 0; j < n; j++ {
			z += mu[j] * p.D0[j]
		}
	case ElasticTotals:
		for i := 0; i < m; i++ {
			// min over s: α(s−s⁰)² + λs at ŝ = s⁰ − λ/(2α).
			z += lambda[i]*p.S0[i] - lambda[i]*lambda[i]/(4*p.Alpha[i])
		}
		for j := 0; j < n; j++ {
			z += mu[j]*p.D0[j] - mu[j]*mu[j]/(4*p.Beta[j])
		}
	case Balanced:
		for j := 0; j < n; j++ {
			t := lambda[j] + mu[j]
			z += t*p.S0[j] - t*t/(4*p.Alpha[j])
		}
	case IntervalTotals:
		// min over t ∈ [lo, hi] of λ·t: the support term of the interval
		// constraint's concave dual.
		for i := 0; i < m; i++ {
			z += intervalSupport(lambda[i], p.SLo[i], p.SHi[i])
		}
		for j := 0; j < n; j++ {
			z += intervalSupport(mu[j], p.DLo[j], p.DHi[j])
		}
	}
	return z
}

// intervalSupport returns min_{t ∈ [lo,hi]} λ·t.
func intervalSupport(lambda, lo, hi float64) float64 {
	if lambda >= 0 {
		return lambda * lo
	}
	return lambda * hi
}

// DualPrimal recovers the Lagrangian-minimizing primal point X(λ,μ), S(λ,μ),
// D(λ,μ) of equations (23a–c)/(40a–b) — the point the equilibration phases
// manipulate implicitly. x must have length p.Nnz() (M·N dense, stored order
// for CSR); s length M; d length N.
func DualPrimal(p *DiagonalProblem, lambda, mu, x, s, d []float64) {
	m, n := p.M, p.N
	if pt := p.Pattern; pt != nil {
		for i := 0; i < m; i++ {
			li := lambda[i]
			for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
				g := p.Gamma[k]
				x[k] = p.clampEntry(k, p.X0[k]+(li+mu[pt.ColIdx[k]])/(2*g))
			}
		}
	} else {
		for i := 0; i < m; i++ {
			li := lambda[i]
			for j := 0; j < n; j++ {
				k := i*n + j
				g := p.Gamma[k]
				x[k] = p.clampEntry(k, p.X0[k]+(li+mu[j])/(2*g))
			}
		}
	}
	switch p.Kind {
	case FixedTotals:
		copy(s, p.S0)
		copy(d, p.D0)
	case ElasticTotals:
		for i := 0; i < m; i++ {
			s[i] = p.S0[i] - lambda[i]/(2*p.Alpha[i])
		}
		for j := 0; j < n; j++ {
			d[j] = p.D0[j] - mu[j]/(2*p.Beta[j])
		}
	case Balanced:
		for j := 0; j < n; j++ {
			s[j] = p.S0[j] - (lambda[j]+mu[j])/(2*p.Alpha[j])
			d[j] = s[j]
		}
	case IntervalTotals:
		// The dual-consistent total asserts a multiplier's binding bound
		// (see intervalTarget), so the ∂ζ components measure both interval
		// violation and complementarity failure.
		if pt := p.Pattern; pt != nil {
			for i := 0; i < m; i++ {
				var rs float64
				for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
					rs += x[k]
				}
				s[i] = intervalTarget(lambda[i], rs, p.SLo[i], p.SHi[i])
			}
			clear(d)
			for k, v := range x {
				d[pt.ColIdx[k]] += v
			}
			for j := 0; j < n; j++ {
				d[j] = intervalTarget(mu[j], d[j], p.DLo[j], p.DHi[j])
			}
			return
		}
		for i := 0; i < m; i++ {
			var rs float64
			for j := 0; j < n; j++ {
				rs += x[i*n+j]
			}
			s[i] = intervalTarget(lambda[i], rs, p.SLo[i], p.SHi[i])
		}
		for j := 0; j < n; j++ {
			var cs float64
			for i := 0; i < m; i++ {
				cs += x[i*n+j]
			}
			d[j] = intervalTarget(mu[j], cs, p.DLo[j], p.DHi[j])
		}
	}
}

// DualResiduals computes the gradient of ζ at (λ, μ): the row residuals
// S_i(λ,μ) − Σ_j X_ij(λ,μ) and column residuals D_j(λ,μ) − Σ_i X_ij(λ,μ)
// (equations (25), (26), (42)). ‖∇ζ‖ ≤ ε is exactly the theoretical
// stopping criterion (27)/(43)/(52).
func DualResiduals(p *DiagonalProblem, lambda, mu, gradL, gradM []float64) {
	m, n := p.M, p.N
	x := make([]float64, p.Nnz())
	s := make([]float64, m)
	d := make([]float64, n)
	DualPrimal(p, lambda, mu, x, s, d)
	if pt := p.Pattern; pt != nil {
		for i := 0; i < m; i++ {
			var rs float64
			for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
				rs += x[k]
			}
			gradL[i] = s[i] - rs
		}
		clear(gradM)
		for k, v := range x {
			gradM[pt.ColIdx[k]] += v
		}
		for j := 0; j < n; j++ {
			gradM[j] = d[j] - gradM[j]
		}
		return
	}
	for i := 0; i < m; i++ {
		var rs float64
		for j := 0; j < n; j++ {
			rs += x[i*n+j]
		}
		gradL[i] = s[i] - rs
	}
	for j := 0; j < n; j++ {
		var cs float64
		for i := 0; i < m; i++ {
			cs += x[i*n+j]
		}
		gradM[j] = d[j] - cs
	}
}

// MaxDualResidual returns ‖∇ζ(λ,μ)‖∞.
func MaxDualResidual(p *DiagonalProblem, lambda, mu []float64) float64 {
	gl := make([]float64, p.M)
	gm := make([]float64, p.N)
	DualResiduals(p, lambda, mu, gl, gm)
	var worst float64
	for _, v := range gl {
		if a := math.Abs(v); a > worst {
			worst = a
		}
	}
	for _, v := range gm {
		if a := math.Abs(v); a > worst {
			worst = a
		}
	}
	return worst
}
