package experiments

import (
	"context"
	"fmt"
	"time"

	"sea/internal/core"
	"sea/internal/problems"
)

// GrowthRow is one point of the growth-factor sensitivity sweep.
type GrowthRow struct {
	GrowthPct  int
	Iterations int
	Seconds    float64
}

// GrowthSweep quantifies the paper's Table 4 observation that larger growth
// factors make migration-style elastic problems harder: the same 48×48
// migration table is re-solved with its total priors uniformly grown by an
// increasing percentage, measuring how far the μ = 0 initialization then is
// from the optimum. Like Table 4 it runs plain SEA (core.PinOmega).
func GrowthSweep(ctx context.Context, cfg Config) ([]GrowthRow, error) {
	x0 := problems.MigrationTable("6570", 1234)
	const n = 48
	ones := make([]float64, n*n)
	for k := range ones {
		ones[k] = 1
	}
	onesN := ones[:n]
	rawS := make([]float64, n)
	rawD := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rawS[i] += x0[i*n+j]
			rawD[j] += x0[i*n+j]
		}
	}
	var rows []GrowthRow
	for _, pct := range []int{0, 5, 10, 25, 50, 100, 200} {
		factor := 1 + float64(pct)/100
		s0 := make([]float64, n)
		d0 := make([]float64, n)
		for i := 0; i < n; i++ {
			s0[i] = rawS[i] * factor
			d0[i] = rawD[i] * factor
		}
		p, err := core.NewElastic(n, n, x0, ones, s0, onesN, d0, onesN)
		if err != nil {
			return rows, err
		}
		o := core.DefaultOptions()
		o.Criterion = core.DualGradient
		o.Epsilon = cfg.eps(0.01)
		o.MaxIterations = 500000
		start := time.Now()
		sol, err := core.SolveDiagonal(ctx, p, core.PinOmega(o))
		if err != nil {
			return rows, fmt.Errorf("growth sweep %d%%: %w", pct, err)
		}
		rows = append(rows, GrowthRow{GrowthPct: pct, Iterations: sol.Iterations, Seconds: time.Since(start).Seconds()})
	}
	return rows, nil
}

// RelaxRow is one point of the projection-relaxation ablation.
type RelaxRow struct {
	Rho     float64
	Outer   int
	Inner   int
	Seconds float64
}

// RelaxationAblation sweeps the projection step scaling ρ on a general
// dense-G problem: ρ = 1 reproduces the paper's subproblem (79); smaller ρ
// takes more conservative steps (more robust when dominance is weak, slower
// when it is strong).
func RelaxationAblation(ctx context.Context, cfg Config) ([]RelaxRow, error) {
	size := cfg.dim(40)
	p := problems.GeneralDense(size, size, 77, false)
	var rows []RelaxRow
	for _, rho := range []float64{1.0, 0.8, 0.5, 0.25} {
		o := core.DefaultOptions()
		o.Epsilon = cfg.eps(0.001)
		o.Criterion = core.MaxAbsDelta
		o.Relaxation = rho
		o.SkipDominanceCheck = true
		o.MaxIterations = 10000
		start := time.Now()
		sol, err := core.SolveGeneral(ctx, p, o)
		if err != nil {
			return rows, fmt.Errorf("relaxation %g: %w", rho, err)
		}
		rows = append(rows, RelaxRow{
			Rho: rho, Outer: sol.Iterations, Inner: sol.InnerIterations,
			Seconds: time.Since(start).Seconds(),
		})
	}
	return rows, nil
}
