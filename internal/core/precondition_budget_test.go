package core_test

import (
	"context"
	"errors"
	"testing"

	"sea/internal/core"
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

// TestPrecondISPBudgetIsTheSolves: with PrecondSweeps unset the ISP warm
// start runs until it reaches the solve's own tolerance, so on these elastic
// spatial price instances SEA's first outer iteration already converges, to
// a certified answer (spe150 needs 175 sweeps, past the old default budget
// of 150). An explicit PrecondSweeps still caps the stage: 50 sweeps leave
// SEA more than one iteration.
func TestPrecondISPBudgetIsTheSolves(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *core.DiagonalProblem
	}{
		{"spe100", speMatrix(t, 100, 100)},
		{"spe150", speMatrix(t, 150, 1)},
	} {
		const eps = 0.01
		o := core.DefaultOptions()
		o.Criterion, o.Epsilon, o.Precondition = core.DualGradient, eps, core.PrecondISP
		sol, err := core.SolveDiagonal(context.Background(), c.p, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sol.Iterations != 1 {
			t.Errorf("%s: %d outer iterations after %d warm-start sweeps, want 1", c.name, sol.Iterations, sol.PrecondSweeps)
		}
		if rep := core.CheckKKT(c.p, sol); !rep.Satisfied(eps) {
			t.Errorf("%s: KKT violation %g > %g (report %+v)", c.name, rep.Max(), eps, rep)
		}

		capped := *o
		capped.PrecondSweeps = 50
		sol, err = core.SolveDiagonal(context.Background(), c.p, &capped)
		if err != nil {
			t.Fatalf("%s capped: %v", c.name, err)
		}
		if sol.PrecondSweeps != 50 || sol.Iterations <= 1 {
			t.Errorf("%s capped at 50 sweeps: ran %d sweeps and %d outer iterations, want 50 and more than 1", c.name, sol.PrecondSweeps, sol.Iterations)
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
