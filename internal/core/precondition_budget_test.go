package core_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"sea/internal/core"
	"sea/internal/problems"
	"sea/internal/spe"
)

func speMatrix(t *testing.T, n int, seed uint64) *core.DiagonalProblem {
	t.Helper()
	p, err := spe.Generate(n, n, seed).ToConstrainedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPrecondISPBudgetIsTheSolves: the ISP warm start runs until it meets
// the solve's own criterion, within MaxIterations sweeps, so SEA's first
// outer iteration already converges, to a certified answer: on elastic
// spatial price instances (spe150 needs 175 sweeps at dual-gradient 0.01)
// and, under RelBalance, where the stage stops at ε times the smallest row
// total, on a balanced CSR instance too (a stage stopped at ε itself left
// SparseSAM 93 iterations).
func TestPrecondISPBudgetIsTheSolves(t *testing.T) {
	spe150 := speMatrix(t, 150, 1)
	for _, c := range []struct {
		name string
		p    *core.DiagonalProblem
		crit core.Criterion
		eps  float64
	}{
		{"spe100", speMatrix(t, 100, 100), core.DualGradient, 0.01},
		{"spe150", spe150, core.DualGradient, 0.01},
		{"spe150", spe150, core.RelBalance, 1e-3},
		{"sparsesam600", problems.SparseSAM(600, 20, 3), core.RelBalance, 1e-3},
	} {
		o := core.DefaultOptions()
		o.Criterion, o.Epsilon, o.Precondition = c.crit, c.eps, core.PrecondISP
		sol, err := core.SolveDiagonal(context.Background(), c.p, o)
		if err != nil {
			t.Fatalf("%s %v: %v", c.name, c.crit, err)
		}
		if sol.Iterations != 1 {
			t.Errorf("%s %v: %d outer iterations after %d warm-start sweeps, want 1", c.name, c.crit, sol.Iterations, sol.PrecondSweeps)
		}
		// Under RelBalance the rows meet ε relative to their totals;
		// stationarity is exact up to rounding.
		tol := c.eps
		if c.crit == core.RelBalance {
			for _, v := range sol.S {
				tol = max(tol, c.eps*math.Abs(v))
			}
		}
		if rep := core.CheckKKT(c.p, sol); !rep.Satisfied(tol) {
			t.Errorf("%s %v: KKT violation %g > %g (report %+v)", c.name, c.crit, rep.Max(), tol, rep)
		}
	}
}

// TestPrecondISPStallStop: at a tolerance no sweep can reach, the warm
// start ends on a stall of its exact sweeps, far short of its MaxIterations
// budget, and the solve then fails as it always did: SEA spends its own
// iterations and returns ErrNotConverged.
func TestPrecondISPStallStop(t *testing.T) {
	p := speMatrix(t, 30, 7)
	o := core.DefaultOptions()
	o.Criterion, o.Epsilon, o.Precondition = core.DualGradient, 1e-300, core.PrecondISP
	o.MaxIterations = 2000
	sol, err := core.SolveDiagonal(context.Background(), p, o)
	if !errors.Is(err, core.ErrNotConverged) || errors.Is(err, core.ErrDiverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if sol == nil || sol.Iterations != o.MaxIterations {
		t.Fatalf("solution %v, want the iterate after %d outer iterations", sol, o.MaxIterations)
	}
	if sol.PrecondSweeps <= 0 || sol.PrecondSweeps >= o.MaxIterations/2 {
		t.Fatalf("warm start ran %d sweeps, want a stall well short of %d", sol.PrecondSweeps, o.MaxIterations)
	}
	t.Logf("stage stalled after %d sweeps", sol.PrecondSweeps)
}
