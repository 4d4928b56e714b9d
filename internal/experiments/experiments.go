// Package experiments contains one runnable experiment per table and figure
// of the paper's evaluation (Sections 4 and 5), each returning typed rows
// that cmd/seabench renders. DESIGN.md maps every experiment to the paper's
// table/figure and the modules it exercises.
//
// All experiments accept a Config whose Scale shrinks the instance sizes
// proportionally, so the full suite can run quickly in CI (Scale ≈ 0.05)
// or at the paper's sizes (Scale = 1).
package experiments

import (
	"context"
	"time"

	"sea/internal/core"
	"sea/internal/parallel"
)

// Config controls experiment sizing and execution.
type Config struct {
	// Scale multiplies the paper's instance dimensions (0 < Scale ≤ 1).
	Scale float64
	// Procs is the worker count for the parallel phases of the solves
	// themselves (results are identical for any value; only wall time
	// changes).
	Procs int
	// Runner, if non-nil, is one persistent worker pool reused across every
	// solve of the run, so repeated experiments pay no per-solve worker
	// startup. The caller owns its lifecycle. When nil each solve manages
	// its own pool of Procs workers.
	Runner *parallel.Pool
	// Epsilon overrides the paper's per-table tolerance when positive.
	Epsilon float64
	// MaxBKDim caps the G order on which the Bachem–Korte baseline runs
	// (the paper stopped at 900×900 because B-K became prohibitively
	// expensive). Zero means the paper's cap.
	MaxBKDim int
	// PerfReps overrides the perf suite's timed repetitions per record
	// (seabench -benchreps); 0 means the default.
	PerfReps int
	// BenchFilter, when non-empty, restricts the perf suite to records whose
	// name contains this substring (seabench -benchfilter): instance records
	// match by instance name, the HTTP serving sweep by "serve/http". Empty
	// runs the full suite — the committed BENCH_sea.json must be regenerated
	// unfiltered, because seabench -compare counts records missing from the
	// new file as failures.
	BenchFilter string
}

// apply copies the execution-related Config fields into o.
func (c Config) apply(o *core.Options) {
	o.Procs = c.Procs
	o.Runner = c.Runner
}

// dim scales a paper dimension, keeping at least a workable minimum.
func (c Config) dim(n int) int {
	s := c.Scale
	if s <= 0 || s > 1 {
		s = 1
	}
	v := int(float64(n) * s)
	if v < 4 {
		v = 4
	}
	return v
}

// eps returns the tolerance for a table whose paper tolerance is def.
func (c Config) eps(def float64) float64 {
	if c.Epsilon > 0 {
		return c.Epsilon
	}
	return def
}

// timedSolve runs SolveDiagonal and returns the solution with its wall time.
// It serves the paper's tables, which reproduce the plain algorithm, so it
// pins ω at 1 (core.PinOmega): their iteration counts are plain SEA's.
func timedSolve(ctx context.Context, p *core.DiagonalProblem, o *core.Options) (*core.Solution, float64, error) {
	start := time.Now()
	sol, err := core.SolveDiagonal(ctx, p, core.PinOmega(o))
	return sol, time.Since(start).Seconds(), err
}
