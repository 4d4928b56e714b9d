package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sea/internal/metrics"
	"sea/internal/parsim"
	"sea/internal/trace"
)

// TestQuickFixedAlwaysOptimal: property-based sweep — every randomly drawn
// feasible fixed-totals problem yields a KKT-certified optimum.
func TestQuickFixedAlwaysOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xC0FFEE))
		m := 1 + rng.IntN(7)
		n := 1 + rng.IntN(7)
		p := randFixed(rng, m, n, 1+rng.Float64()*1000, 0.5+rng.Float64()*3)
		sol, err := SolveDiagonal(context.Background(), p, tightOpts())
		if err != nil {
			return false
		}
		// Scale the KKT tolerance by the data magnitude.
		scale := 1.0
		for _, v := range p.S0 {
			if v > scale {
				scale = v
			}
		}
		return CheckKKT(p, sol).Satisfied(1e-6 * scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickElasticDualityGap: for every random elastic problem, strong
// duality holds at the computed solution.
func TestQuickElasticDualityGap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xD0))
		p := randElastic(rng, 1+rng.IntN(6), 1+rng.IntN(6))
		sol, err := SolveDiagonal(context.Background(), p, tightOpts())
		if err != nil {
			return false
		}
		return math.Abs(sol.Gap()) <= 1e-5*(1+math.Abs(sol.Objective))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSEAObjectiveBeatsFeasiblePoints: the SEA optimum's objective is no
// worse than that of other feasible points (here: the proportional fill and
// scaled perturbations of the optimum projected back to feasibility).
func TestSEAObjectiveBeatsFeasiblePoints(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.IntN(5)
		n := 2 + rng.IntN(5)
		p := randFixed(rng, m, n, 100, 2)
		sol, err := SolveDiagonal(context.Background(), p, tightOpts())
		if err != nil {
			t.Fatal(err)
		}
		// Proportional fill is feasible for consistent totals.
		total := 0.0
		for _, v := range p.S0 {
			total += v
		}
		fill := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				fill[i*n+j] = p.S0[i] * p.D0[j] / total
			}
		}
		if fillObj := p.Objective(fill, nil, nil); fillObj < sol.Objective-1e-6*(1+sol.Objective) {
			t.Errorf("trial %d: proportional fill (%g) beat SEA (%g)", trial, fillObj, sol.Objective)
		}
	}
}

// TestUpperBoundsElastic exercises the Ohuchi–Kaji bounds together with
// elastic totals.
func TestUpperBoundsElastic(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 74))
	for trial := 0; trial < 10; trial++ {
		p := randElastic(rng, 4, 5)
		p.Upper = make([]float64, 20)
		for k := range p.Upper {
			if rng.Float64() < 0.3 {
				p.Upper[k] = 1 + rng.Float64()*20
			} else {
				p.Upper[k] = math.Inf(1)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		sol, err := SolveDiagonal(context.Background(), p, tightOpts())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k, v := range sol.X {
			if v > p.Upper[k]+1e-9 {
				t.Fatalf("trial %d: bound violated at %d: %g > %g", trial, k, v, p.Upper[k])
			}
		}
		if rep := CheckKKT(p, sol); !rep.Satisfied(1e-6) {
			t.Errorf("trial %d: KKT %+v", trial, rep)
		}
	}
}

// TestUpperBoundsBalanced exercises bounds on the SAM variant.
func TestUpperBoundsBalanced(t *testing.T) {
	rng := rand.New(rand.NewPCG(75, 76))
	p := randBalanced(rng, 5)
	p.Upper = make([]float64, 25)
	for k := range p.Upper {
		p.Upper[k] = 5 + rng.Float64()*30
	}
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep := CheckKKT(p, sol); !rep.Satisfied(1e-6) {
		t.Errorf("KKT %+v", rep)
	}
}

// TestMuZeroMatchesDefault: passing an explicit zero warm start must equal
// the default initialization (Step 0: μ¹ = 0).
func TestMuZeroMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	p := randFixed(rng, 6, 6, 100, 2)
	a, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := tightOpts()
	o.Mu0 = make([]float64, p.N)
	b, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.X {
		if a.X[k] != b.X[k] {
			t.Fatalf("explicit zero warm start diverged at %d", k)
		}
	}
	if a.Iterations != b.Iterations {
		t.Errorf("iteration counts differ: %d vs %d", a.Iterations, b.Iterations)
	}
}

// TestSolutionIndependentOfTraceAndCounters: instrumentation must not alter
// the numerics.
func TestSolutionIndependentOfTraceAndCounters(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 80))
	p := randBalanced(rng, 7)
	plain, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := tightOpts()
	o.Trace = trace.Multi(&metrics.Counters{}, &parsim.Recorder{})
	traced, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	for k := range plain.X {
		if plain.X[k] != traced.X[k] {
			t.Fatalf("tracing changed the solution at %d", k)
		}
	}
}

// TestParallelConvCheckInvariance: parallelizing the convergence check must
// not change results, iteration counts, or convergence decisions — only the
// trace's cost attribution.
func TestParallelConvCheckInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(111, 112))
	for _, mk := range []func() *DiagonalProblem{
		func() *DiagonalProblem { return randFixed(rng, 7, 5, 100, 2) },
		func() *DiagonalProblem { return randElastic(rng, 6, 8) },
	} {
		p := mk()
		for _, crit := range []Criterion{MaxAbsDelta, DualGradient} {
			base := tightOpts()
			base.Criterion = crit
			base.Epsilon = 1e-8
			ref, err := SolveDiagonal(context.Background(), p, base)
			if err != nil {
				t.Fatal(err)
			}
			par := tightOpts()
			par.Criterion = crit
			par.Epsilon = 1e-8
			par.ParallelConvCheck = true
			par.Procs = 3
			tr := &parsim.Recorder{}
			par.Trace = tr
			got, err := SolveDiagonal(context.Background(), p, par)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != ref.Iterations {
				t.Errorf("%v: iterations %d vs %d", crit, got.Iterations, ref.Iterations)
			}
			for k := range ref.X {
				if got.X[k] != ref.X[k] {
					t.Fatalf("%v: X[%d] differs under parallel check", crit, k)
				}
			}
			// The trace must mark the check as parallel tasks with a small
			// serial remainder.
			last := tr.Phases[len(tr.Phases)-1]
			if len(last.Check) != p.M {
				t.Errorf("%v: check tasks = %d, want %d", crit, len(last.Check), p.M)
			}
			if last.Serial >= int64(p.M*p.N) {
				t.Errorf("%v: serial part %d not reduced", crit, last.Serial)
			}
		}
	}
}

// TestLowerBoundsSolver: the full Ohuchi–Kaji box on a fixed-totals solve.
func TestLowerBoundsSolver(t *testing.T) {
	rng := rand.New(rand.NewPCG(115, 116))
	for trial := 0; trial < 8; trial++ {
		m := 3 + rng.IntN(4)
		n := 3 + rng.IntN(4)
		p := randFixed(rng, m, n, 100, 2)
		p.Lower = make([]float64, m*n)
		for k := range p.Lower {
			if rng.Float64() < 0.4 {
				// Modest floors, small enough to keep the polytope nonempty.
				p.Lower[k] = rng.Float64() * p.S0[0] / float64(4*n)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		sol, err := SolveDiagonal(context.Background(), p, tightOpts())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k, v := range sol.X {
			if v < p.Lower[k]-1e-9 {
				t.Fatalf("trial %d: X[%d]=%g below floor %g", trial, k, v, p.Lower[k])
			}
		}
		if rep := CheckKKT(p, sol); !rep.Satisfied(1e-5) {
			t.Errorf("trial %d: KKT %+v", trial, rep)
		}
		// Floors can only raise the objective versus the unconstrained-
		// below problem.
		free := *p
		free.Lower = nil
		fsol, err := SolveDiagonal(context.Background(), &free, tightOpts())
		if err != nil {
			t.Fatal(err)
		}
		if sol.Objective < fsol.Objective-1e-6*(1+fsol.Objective) {
			t.Errorf("trial %d: floored objective %g below free %g", trial, sol.Objective, fsol.Objective)
		}
	}
}
