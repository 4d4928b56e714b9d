package sea

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestScalingSolversRejectNonFinitePrior: a NaN (or ±Inf) prior cell must
// surface as ErrInvalidProblem from every scaling-family solver at the
// facade, not as a quiet non-convergence or a poisoned solution.
func TestScalingSolversRejectNonFinitePrior(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := testFixed(t, 3, 3, 1.2)
		x0 := append([]float64(nil), p.X0...)
		x0[4] = bad
		p.X0 = x0
		for _, solver := range []string{"sea", "sinkhorn", "isp", "ras"} {
			// Deliberately-invalid data: skip the validating constructor and
			// let Solve's own validation surface the sentinel.
			_, err := Solve(context.Background(), solver, &Problem{Diagonal: p}, nil)
			if !errors.Is(err, ErrInvalidProblem) {
				t.Errorf("%s with X0 cell %v: err = %v, want ErrInvalidProblem", solver, bad, err)
			}
		}
	}
}

// TestFacadePreconditionOption: Options.Precondition drives the warm-start
// stage through the public facade — the solve records the stage's wall
// time and still lands on the same optimum as the plain solve.
func TestFacadePreconditionOption(t *testing.T) {
	p, err := NewDiagonal(testFixed(t, 12, 9, 1.4))
	if err != nil {
		t.Fatal(err)
	}
	opts := func(pc Precond) *Options {
		o := DefaultOptions()
		o.Criterion = DualGradient
		o.Epsilon = 1e-8
		o.Precondition = pc
		return o
	}
	base, err := Solve(context.Background(), "sea", p, opts(PrecondNone))
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []Precond{PrecondScale, PrecondISP} {
		sol, err := Solve(context.Background(), "sea", p, opts(pc))
		if err != nil {
			t.Fatalf("%v: %v", pc, err)
		}
		if sol.PrecondNs <= 0 {
			t.Errorf("%v: PrecondNs = %d, want > 0", pc, sol.PrecondNs)
		}
		if d := math.Abs(sol.Objective - base.Objective); d > 1e-6*(1+math.Abs(base.Objective)) {
			t.Errorf("%v: objective %v vs plain %v", pc, sol.Objective, base.Objective)
		}
	}
}
