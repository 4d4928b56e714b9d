package baseline

import (
	"context"
	"fmt"
	"math"
	"time"

	"sea/internal/core"
	"sea/internal/mat"
	"sea/internal/trace"
)

// SolveProjGrad solves a fixed-totals general problem by projected gradient
// descent: steepest descent on f(x) = (x−x⁰)ᵀG(x−x⁰) with a 1/L step,
// followed by Euclidean projection onto the transportation polytope
// (computed by Dykstra's alternating projections). It is slow but relies on
// none of the equilibration-specific dual machinery, serving as a third
// independent reference for SEA's general solutions.
//
// Options use the unified core semantics: Epsilon is the step-delta
// tolerance, MaxIterations caps the gradient steps (the inner Dykstra
// projection runs at Epsilon/10 with a 100× iteration budget), and Trace
// receives one event per step. Cancellation is observed between steps and
// inside the inner projection.
func SolveProjGrad(ctx context.Context, p *core.GeneralProblem, opts *core.Options) (*core.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := fillOpts(opts)
	if p.Kind != core.FixedTotals {
		return nil, fmt.Errorf("baseline: projected gradient supports fixed totals only, got %v", p.Kind)
	}
	if err := p.Validate(true); err != nil {
		return nil, err
	}
	m, n := p.M, p.N
	mn := m * n

	// Lipschitz bound: L = 2·‖G‖∞ (max absolute row sum).
	var norm float64
	row := make([]float64, mn)
	for k := 0; k < mn; k++ {
		p.G.Row(k, row)
		var s float64
		for _, v := range row {
			s += math.Abs(v)
		}
		if s > norm {
			norm = s
		}
	}
	step := 1 / (2 * norm)

	// Euclidean-projection problem skeleton (unit weights).
	ones := make([]float64, mn)
	mat.Fill(ones, 1)
	proj := &core.DiagonalProblem{
		M: m, N: n,
		X0:    make([]float64, mn),
		Gamma: ones,
		S0:    p.S0, D0: p.D0,
		Upper: p.Upper,
		Kind:  core.FixedTotals,
	}
	// The inner projections run tighter than the outer tolerance and carry
	// no observer of their own — their cost is reported as this solver's
	// column (projection) phase.
	innerOpts := &core.Options{
		Epsilon:       o.Epsilon / 10,
		MaxIterations: o.MaxIterations * 100,
	}

	obs := o.Trace
	x, s, d := p.FeasibleStart()
	dev := make([]float64, mn)
	grad := make([]float64, mn)
	sol := &core.Solution{}
	for t := 1; t <= o.MaxIterations; t++ {
		if err := ctx.Err(); err != nil {
			return finishProjGrad(sol, p, x, s, d), err
		}
		sol.Iterations = t
		var ev trace.Event
		var mark time.Time
		if obs != nil {
			ev = trace.Event{Solver: "projgrad", Iteration: t, Checked: true}
			mark = time.Now()
		}
		for k := 0; k < mn; k++ {
			dev[k] = x[k] - p.X0[k]
		}
		p.G.MulVec(grad, dev)
		for k := 0; k < mn; k++ {
			proj.X0[k] = x[k] - step*2*grad[k]
		}
		if obs != nil {
			now := time.Now()
			ev.RowPhase = now.Sub(mark)
			mark = now
		}
		pr, err := SolveDykstra(ctx, proj, innerOpts)
		if err != nil {
			if ctx.Err() != nil {
				return finishProjGrad(sol, p, x, s, d), ctx.Err()
			}
			return nil, fmt.Errorf("baseline: projected gradient inner projection: %w", err)
		}
		delta := mat.MaxAbsDiff(pr.X, x)
		copy(x, pr.X)
		sol.Residual = delta
		if obs != nil {
			ev.ColPhase = time.Since(mark)
			ev.Inner = pr.Iterations
			ev.Residual = delta
			ev.Ops = int64(mn) * int64(mn)
			ev.SerialOps = int64(mn)
			obs.ObserveIteration(ev)
		}
		if delta <= o.Epsilon {
			sol.Converged = true
			break
		}
	}
	finishProjGrad(sol, p, x, s, d)
	if !sol.Converged {
		return sol, fmt.Errorf("%w: projected gradient after %d iterations", core.ErrNotConverged, o.MaxIterations)
	}
	return sol, nil
}

// finishProjGrad fills sol with the current iterate and its objective.
func finishProjGrad(sol *core.Solution, p *core.GeneralProblem, x, s, d []float64) *core.Solution {
	sol.X = x
	sol.S = s
	sol.D = d
	sol.Objective = p.Objective(x, s, d)
	sol.DualValue = math.NaN()
	return sol
}
