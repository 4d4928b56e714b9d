package experiments

import (
	"context"
	"fmt"

	"sea/internal/baseline"
	"sea/internal/core"
	"sea/internal/parsim"
	"sea/internal/problems"
	"sea/internal/spe"
)

// SpeedupRow is one line of Table 6 or Table 9 (and one point of Figure 5
// or Figure 7): a speedup/efficiency measurement at N processors.
type SpeedupRow struct {
	Example    string
	N          int
	Speedup    float64
	Efficiency float64
}

// table6Procs are the processor counts of Table 6 (the 3090-600E had six).
var table6Procs = []int{2, 4, 6}

// Table6 reproduces Table 6 and Figure 5: speedups and efficiencies of
// parallel SEA on two fixed diagonal examples (IO72b and the 1000×1000
// Table 1 problem) and two elastic ones (SP500 and SP750), measured on the
// simulated shared-memory multiprocessor driven by the instrumented
// operation counts of the actual solves (DESIGN.md, substitution 1).
func Table6(ctx context.Context, cfg Config) ([]SpeedupRow, error) {
	return table6(ctx, cfg, false)
}

// Table6Enhanced is Table 6 with the convergence-verification phase
// parallelized — the enhancement the paper proposes at the end of
// Section 4.2 ("...and/or by implementing the convergence step in
// parallel"). Comparing it with Table6 quantifies how much of the
// efficiency loss the serial check causes.
func Table6Enhanced(ctx context.Context, cfg Config) ([]SpeedupRow, error) {
	return table6(ctx, cfg, true)
}

func table6(ctx context.Context, cfg Config, parallelCheck bool) ([]SpeedupRow, error) {
	var rows []SpeedupRow

	// IO72b: fixed totals, 485 sectors, 16% dense, 100% growth.
	ioSpec := problems.IOSpec{Name: "IO72b", Sectors: cfg.dim(485), Density: 0.16, Variant: problems.IOGrowth100, Seed: 72}
	ioP := problems.IOTable(ioSpec)
	if err := appendSpeedups(ctx, &rows, "IO72b", ioP, cfg, core.MaxAbsDelta, cfg.eps(0.01), 1, parallelCheck); err != nil {
		return rows, err
	}

	// 1000×1000 from Table 1.
	t1 := problems.Table1(cfg.dim(1000), 1000)
	if err := appendSpeedups(ctx, &rows, "1000x1000", t1, cfg, core.MaxAbsDelta, cfg.eps(0.01), 1, parallelCheck); err != nil {
		return rows, err
	}

	// SP500 and SP750: elastic problems, convergence checked every other
	// iteration as in the paper.
	for _, size := range []int{500, 750} {
		n := cfg.dim(size)
		sp := spe.Generate(n, n, uint64(size))
		p, err := sp.ToConstrainedMatrix()
		if err != nil {
			return rows, err
		}
		name := fmt.Sprintf("SP%dx%d", size, size)
		if err := appendSpeedups(ctx, &rows, name, p, cfg, core.DualGradient, cfg.eps(0.01), 2, parallelCheck); err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// appendSpeedups solves p with tracing enabled and appends the simulated
// speedup measurements for the Table 6 processor counts. Like timedSolve it
// runs plain SEA (core.PinOmega).
func appendSpeedups(ctx context.Context, rows *[]SpeedupRow, name string, p *core.DiagonalProblem, cfg Config, crit core.Criterion, eps float64, checkEvery int, parallelCheck bool) error {
	o := core.DefaultOptions()
	o.Criterion = crit
	o.Epsilon = eps
	o.CheckEvery = checkEvery
	cfg.apply(core.PinOmega(o))
	o.MaxIterations = 500000
	o.ParallelConvCheck = parallelCheck
	tr := &parsim.Recorder{}
	o.Trace = tr
	if _, err := core.SolveDiagonal(ctx, p, o); err != nil {
		return fmt.Errorf("speedup example %s: %w", name, err)
	}
	for _, m := range parsim.Speedups(tr.Phases, table6Procs) {
		*rows = append(*rows, SpeedupRow{Example: name, N: m.Procs, Speedup: m.Speedup, Efficiency: m.Efficiency})
	}
	return nil
}

// Table9 reproduces Table 9 and Figure 7: speedups of SEA versus RC on the
// general problem with a 10000×10000 dense G matrix, at 2 and 4 processors,
// again on the simulated multiprocessor. SEA verifies the projection
// method's convergence once per outer iteration; RC re-verifies inside every
// stage, so SEA has fewer serial phases and parallelizes better.
func Table9(ctx context.Context, cfg Config) ([]SpeedupRow, error) {
	size := cfg.dim(100) // 100×100 matrix ⇒ G is 10000×10000
	p := problems.GeneralDense(size, size, 100, false)
	procs := []int{2, 4}

	var rows []SpeedupRow

	seaOpts := core.DefaultOptions()
	seaOpts.Epsilon = cfg.eps(0.001)
	seaOpts.Criterion = core.MaxAbsDelta
	cfg.apply(seaOpts)
	seaOpts.SkipDominanceCheck = true
	seaTr := &parsim.Recorder{}
	seaOpts.Trace = seaTr
	if _, err := core.SolveGeneral(ctx, p, seaOpts); err != nil {
		return rows, fmt.Errorf("table 9 SEA: %w", err)
	}
	for _, m := range parsim.Speedups(seaTr.Phases, procs) {
		rows = append(rows, SpeedupRow{Example: "SEA", N: m.Procs, Speedup: m.Speedup, Efficiency: m.Efficiency})
	}

	rcOpts := core.DefaultOptions()
	rcOpts.Epsilon = cfg.eps(0.001)
	cfg.apply(rcOpts)
	rcOpts.SkipDominanceCheck = true
	rcTr := &parsim.Recorder{}
	rcOpts.Trace = rcTr
	if _, err := baseline.SolveRC(ctx, p, rcOpts); err != nil {
		return rows, fmt.Errorf("table 9 RC: %w", err)
	}
	for _, m := range parsim.Speedups(rcTr.Phases, procs) {
		rows = append(rows, SpeedupRow{Example: "RC", N: m.Procs, Speedup: m.Speedup, Efficiency: m.Efficiency})
	}
	return rows, nil
}

// Table6Wall measures *wall-clock* speedups of the goroutine-parallel
// implementation on the Table 6 examples: elapsed time with one worker
// divided by elapsed time with N workers. On a single-core host these hover
// near 1 (see DESIGN.md, substitution 1 — the simulated machine exists for
// exactly that reason); on a multicore host they are directly comparable to
// the paper's measurements.
func Table6Wall(ctx context.Context, cfg Config) ([]SpeedupRow, error) {
	var rows []SpeedupRow
	examples := []struct {
		name  string
		build func() (*core.DiagonalProblem, error)
		crit  core.Criterion
		check int
	}{
		{"IO72b", func() (*core.DiagonalProblem, error) {
			return problems.IOTable(problems.IOSpec{Name: "IO72b", Sectors: cfg.dim(485), Density: 0.16, Variant: problems.IOGrowth100, Seed: 72}), nil
		}, core.MaxAbsDelta, 1},
		{"1000x1000", func() (*core.DiagonalProblem, error) {
			return problems.Table1(cfg.dim(1000), 1000), nil
		}, core.MaxAbsDelta, 1},
		{"SP500x500", func() (*core.DiagonalProblem, error) {
			return spe.Generate(cfg.dim(500), cfg.dim(500), 500).ToConstrainedMatrix()
		}, core.DualGradient, 2},
	}
	for _, ex := range examples {
		p, err := ex.build()
		if err != nil {
			return rows, err
		}
		times := map[int]float64{}
		for _, procs := range []int{1, 2, 4, 6} {
			o := core.DefaultOptions()
			o.Criterion = ex.crit
			o.Epsilon = cfg.eps(0.01)
			o.CheckEvery = ex.check
			o.MaxIterations = 500000
			o.Procs = procs
			_, secs, err := timedSolve(ctx, p, o)
			if err != nil {
				return rows, fmt.Errorf("wall speedups %s procs=%d: %w", ex.name, procs, err)
			}
			times[procs] = secs
		}
		for _, n := range table6Procs {
			s := times[1] / times[n]
			rows = append(rows, SpeedupRow{Example: ex.name, N: n, Speedup: s, Efficiency: s / float64(n)})
		}
	}
	return rows, nil
}
