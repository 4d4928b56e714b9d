package baseline

import (
	"context"
	"fmt"
	"math"
	"time"

	"sea/internal/core"
	"sea/internal/equilibrate"
	"sea/internal/mat"
	"sea/internal/trace"
)

// SolveDykstra solves a fixed-totals diagonal constrained matrix problem by
// Dykstra's alternating projections in the γ-weighted norm: the solution is
// the projection of x⁰ onto the intersection of the row polytope
// {Σ_j x_ij = s⁰_i, x ≥ 0} and the column polytope {Σ_i x_ij = d⁰_j, x ≥ 0},
// and Dykstra's correction terms make the alternating projections converge
// to exactly that point.
//
// It shares no machinery with the SEA dual ascent beyond the closed-form
// single-polytope projection, making it the test suite's independent
// reference for SEA's answers.
//
// Options use the unified core semantics: Epsilon is the row-total residual
// tolerance, MaxIterations caps the projection cycles, and Trace receives
// one event per cycle. Cancellation is observed between cycles.
func SolveDykstra(ctx context.Context, p *core.DiagonalProblem, opts *core.Options) (*core.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.WithDefaults()
	if p.Kind != core.FixedTotals {
		return nil, fmt.Errorf("baseline: Dykstra supports fixed totals only, got %v", p.Kind)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, n := p.M, p.N
	mn := m * n

	x := mat.Clone(p.X0) // current point (projection source at start)
	y := make([]float64, mn)
	pcorr := make([]float64, mn) // Dykstra correction for the row polytope
	qcorr := make([]float64, mn) // Dykstra correction for the column polytope
	tmp := make([]float64, mn)

	// One kernel solves each projection's subproblems. The column
	// projection solves into the column-major xT against the column-major
	// tmpT, aT and upperT.
	kern := equilibrate.NewKernel(0)
	xT := make([]float64, mn)
	tmpT := make([]float64, mn)
	a := make([]float64, mn) // the kernel slopes 1/(2γ), row-major
	for k := range a {
		a[k] = 0.5 / p.Gamma[k]
	}
	aT := make([]float64, mn) // and column-major
	mat.Transpose(aT, a, m, n)
	var upperT []float64
	if p.Upper != nil {
		upperT = make([]float64, mn)
		mat.Transpose(upperT, p.Upper, m, n)
	}

	obs := o.Trace
	sol := &core.Solution{}
	for t := 1; t <= o.MaxIterations; t++ {
		if err := ctx.Err(); err != nil {
			return partialDykstra(sol, p, x), err
		}
		sol.Iterations = t
		var ev trace.Event
		var mark time.Time
		var ops, interior int64
		if obs != nil {
			ev = trace.Event{Solver: "dykstra", Iteration: t, Checked: true}
			mark = time.Now()
		}
		// Row projection of x + p.
		for k := 0; k < mn; k++ {
			tmp[k] = x[k] + pcorr[k]
		}
		for i := 0; i < m; i++ {
			prob := equilibrate.Problem{C: tmp[i*n : (i+1)*n], A: a[i*n : (i+1)*n], R: p.S0[i]}
			if p.Upper != nil {
				prob.U = p.Upper[i*n : (i+1)*n]
			}
			res, err := kern.Solve(&prob, y[i*n:(i+1)*n], nil)
			if err != nil {
				return nil, fmt.Errorf("baseline: Dykstra row %d: %w", i, err)
			}
			ops += res.Ops
			if res.Interior {
				interior++
			}
		}
		for k := 0; k < mn; k++ {
			pcorr[k] = tmp[k] - y[k]
		}
		if obs != nil {
			now := time.Now()
			ev.RowPhase = now.Sub(mark)
			mark = now
		}
		// Column projection of y + q.
		for k := 0; k < mn; k++ {
			tmp[k] = y[k] + qcorr[k]
		}
		mat.Transpose(tmpT, tmp, m, n)
		for j := 0; j < n; j++ {
			prob := equilibrate.Problem{C: tmpT[j*m : (j+1)*m], A: aT[j*m : (j+1)*m], R: p.D0[j]}
			if upperT != nil {
				prob.U = upperT[j*m : (j+1)*m]
			}
			res, err := kern.Solve(&prob, xT[j*m:(j+1)*m], nil)
			if err != nil {
				return nil, fmt.Errorf("baseline: Dykstra column %d: %w", j, err)
			}
			ops += res.Ops
			if res.Interior {
				interior++
			}
		}
		mat.Transpose(x, xT, n, m)
		for k := 0; k < mn; k++ {
			qcorr[k] = tmp[k] - x[k]
		}
		if obs != nil {
			now := time.Now()
			ev.ColPhase = now.Sub(mark)
			mark = now
		}
		// Converged when the row totals (columns hold exactly) are met.
		var worst float64
		for i := 0; i < m; i++ {
			r := math.Abs(mat.Sum(x[i*n:(i+1)*n]) - p.S0[i])
			if r > worst {
				worst = r
			}
		}
		sol.Residual = worst
		if obs != nil {
			ev.CheckPhase = time.Since(mark)
			ev.Residual = worst
			ev.Equilibrations = int64(m + n)
			ev.Interior = interior
			ev.Ops = ops
			ev.SerialOps = int64(mn)
			obs.ObserveIteration(ev)
		}
		if worst <= o.Epsilon {
			sol.Converged = true
			break
		}
	}
	partialDykstra(sol, p, x)
	if !sol.Converged {
		return sol, fmt.Errorf("%w after %d Dykstra iterations (residual %g)", core.ErrNotConverged, o.MaxIterations, sol.Residual)
	}
	return sol, nil
}

// partialDykstra fills sol with the current iterate and its objective.
func partialDykstra(sol *core.Solution, p *core.DiagonalProblem, x []float64) *core.Solution {
	sol.X = x
	sol.S = mat.Clone(p.S0)
	sol.D = mat.Clone(p.D0)
	sol.Objective = p.Objective(x, sol.S, sol.D)
	sol.DualValue = math.NaN()
	return sol
}
