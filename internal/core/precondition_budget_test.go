package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"sea/internal/core"
	"sea/internal/problems"
	"sea/internal/scale"
	"sea/internal/spe"
)

func speMatrix(t testing.TB, n int, seed uint64) *core.DiagonalProblem {
	t.Helper()
	p, err := spe.Generate(n, n, seed).ToConstrainedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// elasticBench is the benchmark's elastic-isp instance at seed 1: the
// spatial price equilibrium spe.Generate(150, 150, 7) with every price and
// cost coefficient moved by a factor in [0.99, 1.01], drawn from PCG(1, 3)
// in generation order.
func elasticBench(t testing.TB) *core.DiagonalProblem {
	t.Helper()
	sp := spe.Generate(150, 150, 7)
	rng := rand.New(rand.NewPCG(1, 3))
	jitter := func(v *float64) { *v *= 1 + 0.01*(2*rng.Float64()-1) }
	for i := range sp.SupplyIntercept {
		jitter(&sp.SupplyIntercept[i])
		jitter(&sp.SupplySlope[i])
	}
	for j := range sp.DemandIntercept {
		jitter(&sp.DemandIntercept[j])
		jitter(&sp.DemandSlope[j])
	}
	for k := range sp.CostIntercept {
		jitter(&sp.CostIntercept[k])
		jitter(&sp.CostSlope[k])
	}
	p, err := sp.ToConstrainedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPrecondISPBudgetIsTheSolves: the ISP warm start runs until it meets
// the solve's own criterion, within MaxIterations sweeps, so SEA's first
// outer iteration already converges, to a certified answer: on elastic
// spatial price instances and, under RelBalance, where the stage stops at ε
// times the smallest row total, on a balanced CSR instance too (a stage
// stopped at ε itself left SparseSAM 93 iterations). On the elastic ones
// the over-relaxed sweeps bound the stage: plain Gauss–Seidel sweeps took
// 138 on spe100, 175 on spe150 and 170 on the benchmark's instance at
// dual-gradient 0.01.
func TestPrecondISPBudgetIsTheSolves(t *testing.T) {
	spe150 := speMatrix(t, 150, 1)
	for _, c := range []struct {
		name      string
		p         *core.DiagonalProblem
		crit      core.Criterion
		eps       float64
		maxSweeps int // 0: no ceiling
	}{
		{"spe100", speMatrix(t, 100, 100), core.DualGradient, 0.01, 80},
		{"spe150", spe150, core.DualGradient, 0.01, 90},
		{"elastic150", elasticBench(t), core.DualGradient, 0.01, 80},
		{"spe150", spe150, core.RelBalance, 1e-3, 0},
		{"sparsesam600", problems.SparseSAM(600, 20, 3), core.RelBalance, 1e-3, 0},
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
		if c.maxSweeps > 0 && sol.PrecondSweeps > c.maxSweeps {
			t.Errorf("%s %v: %d warm-start sweeps, want ≤ %d", c.name, c.crit, sol.PrecondSweeps, c.maxSweeps)
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

// BenchmarkISPStage times the ISP warm start's sweeps alone on the elastic
// instances of TestPrecondISPBudgetIsTheSolves: each op runs the additive
// dual system from cold duals, one stall window per Run call as the stage
// does, until its residual reaches dual-gradient 0.01 or a window of exact
// sweeps stalls. sweeps/op is the stage's sweep count (the stage runs on a
// power-of-two rescaling of the same system, which leaves it unchanged).
func BenchmarkISPStage(b *testing.B) {
	for _, c := range []struct {
		name string
		p    *core.DiagonalProblem
	}{
		{"spe150", speMatrix(b, 150, 1)},
		{"elastic150", elasticBench(b)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var d core.DualSystem
			lambda, mu := make([]float64, c.p.M), make([]float64, c.p.N)
			colSum, colASum := make([]float64, c.p.N), make([]float64, c.p.N)
			sweeps := 0
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				sys := d.Build(c.p, scale.Additive)
				clear(lambda)
				clear(mu)
				for {
					res := sys.Run(lambda, mu, scale.StallWindow, 0.01, colSum, colASum, nil)
					sweeps += res.Iterations
					if res.Converged || res.Stalled || math.IsNaN(res.Residual) {
						break
					}
				}
			}
			b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
		})
	}
}
