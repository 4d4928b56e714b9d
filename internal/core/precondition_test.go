package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// precondFamilies enumerates dense problems of every kind plus the CSR
// families, the instance set the preconditioning properties quantify over.
func precondFamilies(t *testing.T) map[string]*DiagonalProblem {
	t.Helper()
	rng := rand.New(rand.NewPCG(41, 7))
	fams := map[string]*DiagonalProblem{
		"dense/fixed":    randFixed(rng, 14, 11, 100, 1.3),
		"dense/elastic":  randElastic(rng, 12, 9),
		"dense/balanced": randBalanced(rng, 10),
		"dense/interval": randInterval(rng, 9, 12, 0.3),
	}
	for name, p := range sparseFamilies(t) {
		fams["csr/"+name] = p
	}
	return fams
}

// TestPrecondScaleBitIdentical is the tentpole's exactness property: under
// the exact kernel, PrecondScale rescales the problem by power-of-two
// factors, solves, and unscales — and the result is bit-for-bit the
// unpreconditioned solution (trajectory relabeling), for every kind, both
// storages, and every worker count, and its objective and dual value are
// the plain solve's bits across the float range.
func TestPrecondScaleBitIdentical(t *testing.T) {
	for name, p := range precondFamilies(t) {
		for _, procs := range []int{1, 2, 7, 16} {
			opts := DefaultOptions()
			opts.Epsilon = 1e-6
			opts.Criterion = DualGradient
			opts.Procs = procs
			base, err := SolveDiagonal(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("%s procs=%d: base solve: %v", name, procs, err)
			}
			opts2 := *opts
			opts2.Precondition = PrecondScale
			pre, err := SolveDiagonal(context.Background(), p, &opts2)
			if err != nil {
				t.Fatalf("%s procs=%d: preconditioned solve: %v", name, procs, err)
			}
			if pre.Iterations != base.Iterations {
				t.Errorf("%s procs=%d: iterations %d vs %d", name, procs, pre.Iterations, base.Iterations)
			}
			bitEqual(t, name+"/X", pre.X, base.X)
			bitEqual(t, name+"/S", pre.S, base.S)
			bitEqual(t, name+"/D", pre.D, base.D)
			bitEqual(t, name+"/Lambda", pre.Lambda, base.Lambda)
			bitEqual(t, name+"/Mu", pre.Mu, base.Mu)
			sameValues(t, fmt.Sprintf("%s procs=%d", name, procs), pre, base)
			if pre.Residual != base.Residual {
				t.Errorf("%s procs=%d: residual %v vs %v", name, procs, pre.Residual, base.Residual)
			}
			if pre.PrecondNs <= 0 {
				t.Errorf("%s procs=%d: PrecondNs not recorded", name, procs)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}

	// Ranged copies of the dense fixed instance take σ to 2^±1000, where σ²
	// alone leaves the float range though the objective's factor σ²/τ does
	// not. At 10^300 the plain solve itself rounds some products in the
	// subnormal range, so μ's last bits move; these instances hold the
	// unscaled objective and dual value alone.
	for _, a := range []int{-300, -200, -100, 0, 100, 200, 300} {
		p := rangedFixed(a)
		opts := DefaultOptions()
		opts.Epsilon = 1e-6 * math.Pow(10, float64(a)) // in mass units
		opts.Criterion = DualGradient
		base, err := SolveDiagonal(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("1e%d: base solve: %v", a, err)
		}
		opts.Precondition = PrecondScale
		pre, err := SolveDiagonal(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("1e%d: preconditioned solve: %v", a, err)
		}
		sameValues(t, fmt.Sprintf("dense/fixed×1e%d", a), pre, base)
	}
}

// sameValues reports a preconditioned solve whose objective or dual value
// differs in any bit from the plain solve's.
func sameValues(t *testing.T, what string, pre, base *Solution) {
	t.Helper()
	if math.Float64bits(pre.Objective) != math.Float64bits(base.Objective) {
		t.Errorf("%s: objective %v vs %v", what, pre.Objective, base.Objective)
	}
	if math.Float64bits(pre.DualValue) != math.Float64bits(base.DualValue) {
		t.Errorf("%s: dual value %v vs %v", what, pre.DualValue, base.DualValue)
	}
}

// rangedFixed returns the dense fixed-totals family's instance with its
// mass data (priors, totals) scaled by 10^a and its weights by 10^-a, so
// its objective scales by 10^a.
func rangedFixed(a int) *DiagonalProblem {
	p := randFixed(rand.New(rand.NewPCG(41, 7)), 14, 11, 100, 1.3)
	mass, weight := math.Pow(10, float64(a)), math.Pow(10, float64(-a))
	for _, xs := range [][]float64{p.X0, p.S0, p.D0} {
		for i := range xs {
			xs[i] *= mass
		}
	}
	for i := range p.Gamma {
		p.Gamma[i] *= weight
	}
	return p
}

func bitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: length %d vs %d", what, len(got), len(want))
		return
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Errorf("%s[%d]: %v vs %v (not bit-identical)", what, k, got[k], want[k])
			return
		}
	}
}

// TestPrecondWarmStartsSatisfyOriginalKKT: the ISP warm start changes the
// solve trajectory, so its solutions are compared against the ORIGINAL
// problem's KKT system, not against the baseline iterate: after unscaling,
// the solution must satisfy feasibility and stationarity to the solver's
// tolerance, under the absolute and the relative criterion alike.
func TestPrecondWarmStartsSatisfyOriginalKKT(t *testing.T) {
	for name, p := range precondFamilies(t) {
		for _, crit := range []Criterion{DualGradient, RelBalance} {
			opts := DefaultOptions()
			opts.Epsilon = 1e-8
			opts.Criterion = crit
			opts.Precondition = PrecondISP
			sol, err := SolveDiagonal(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", name, crit, err)
			}
			if !sol.Converged {
				t.Fatalf("%s %v: not converged", name, crit)
			}
			rep := CheckKKT(p, sol)
			// The criterion bounds the row residuals (relative to the
			// largest total under RelBalance); stationarity of the interior
			// cells is exact by construction, so the headroom factor covers
			// accumulated rounding only.
			tol := 1e-6
			if crit == RelBalance {
				tol *= max(1, maxAbs(sol.S))
			}
			if m := rep.Max(); !(m <= tol) {
				t.Fatalf("%s %v: KKT violation %g > %g (report %+v)", name, crit, m, tol, rep)
			}
		}
	}
}

func maxAbs(xs []float64) float64 {
	var m float64
	for _, v := range xs {
		m = max(m, math.Abs(v))
	}
	return m
}

// TestPrecondISPCutsIterations asserts the warm start actually pays on an
// elastic instance: the preconditioned solve must need at most the
// unpreconditioned solve's outer iterations (and strictly fewer on this
// construction, where the prior is far from the totals).
func TestPrecondISPCutsIterations(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 3))
	p := randElastic(rng, 40, 30)
	opts := DefaultOptions()
	opts.Epsilon = 1e-8
	opts.Criterion = DualGradient
	base, err := SolveDiagonal(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts2 := *opts
	opts2.Precondition = PrecondISP
	pre, err := SolveDiagonal(context.Background(), p, &opts2)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Iterations >= base.Iterations {
		t.Fatalf("ISP warm start did not cut iterations: %d vs %d", pre.Iterations, base.Iterations)
	}
	t.Logf("outer iterations: %d → %d", base.Iterations, pre.Iterations)
}

// TestPrecondArenaSteadyState: repeated preconditioned solves on one arena
// must stay allocation-flat once warm (the scaled-problem and warm-start
// buffers are arena-owned).
func TestPrecondArenaSteadyState(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 5))
	p := randElastic(rng, 20, 15)
	ar := NewArena()
	defer ar.Close()
	opts := DefaultOptions()
	opts.Epsilon = 1e-6
	opts.Criterion = DualGradient
	opts.Precondition = PrecondISP
	opts.Arena = ar
	for i := 0; i < 3; i++ { // warm-up
		if _, err := SolveDiagonal(context.Background(), p, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SolveDiagonal(context.Background(), p, opts); err != nil {
			t.Fatal(err)
		}
	})
	// An unpreconditioned arena solve allocates once per solve; the ISP
	// stage's system, column accumulators and brackets live on the arena's
	// precondState, so preconditioning must add no allocation to that.
	if allocs > 1 {
		t.Fatalf("preconditioned arena solve allocates %.0f/op, want ≤ 1", allocs)
	}
}

// TestPrecondCallerMu0Wins: a caller's Mu0 replaces the ISP warm-start
// estimate, so with Mu0 set every preconditioning mode is the
// exact rescaling of the unpreconditioned warm solve — bit-identical to it,
// and restarted from the converged μ it needs next to no iterations.
func TestPrecondCallerMu0Wins(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 3))
	p := randElastic(rng, 30, 25)
	opts := DefaultOptions()
	opts.Epsilon = 1e-8
	opts.Criterion = DualGradient
	cold, err := SolveDiagonal(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := *opts
	warm.Mu0 = cold.Mu
	base, err := SolveDiagonal(context.Background(), p, &warm)
	if err != nil {
		t.Fatal(err)
	}
	if base.Iterations*10 > cold.Iterations {
		t.Fatalf("warm solve from the converged μ took %d iterations, cold %d", base.Iterations, cold.Iterations)
	}
	for _, pc := range []Precond{PrecondScale, PrecondISP} {
		o := warm
		o.Precondition = pc
		pre, err := SolveDiagonal(context.Background(), p, &o)
		if err != nil {
			t.Fatalf("%v: %v", pc, err)
		}
		if pre.Iterations != base.Iterations {
			t.Errorf("%v with Mu0: %d iterations, unpreconditioned %d (cold %d)", pc, pre.Iterations, base.Iterations, cold.Iterations)
		}
		bitEqual(t, pc.String()+"/X", pre.X, base.X)
		bitEqual(t, pc.String()+"/Mu", pre.Mu, base.Mu)
	}
}

// TestPrecondIntervalFallsBackToScale: the ISP warm start stays off for
// interval totals, so preconditioning degrades to pure scaling — which must
// remain bit-identical to the unpreconditioned solve.
func TestPrecondIntervalFallsBackToScale(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	p := randInterval(rng, 8, 10, 0.5)
	opts := DefaultOptions()
	opts.Epsilon = 1e-7
	opts.Criterion = DualGradient
	base, err := SolveDiagonal(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts2 := *opts
	opts2.Precondition = PrecondISP
	pre, err := SolveDiagonal(context.Background(), p, &opts2)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Iterations != base.Iterations {
		t.Fatalf("interval fallback iterations %d vs %d", pre.Iterations, base.Iterations)
	}
	bitEqual(t, "X", pre.X, base.X)
	bitEqual(t, "Lambda", pre.Lambda, base.Lambda)
}

// TestPrecondISPDivergenceFallsBackCold: on a box that cannot carry the
// row totals the ISP warm start's duals diverge (a NaN residual); the warm
// start then leaves the cold μ = 0 instead of non-finite multipliers, and
// the solve fails with the kernel's ErrInfeasible and no solution.
func TestPrecondISPDivergenceFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 3))
	p := randFixed(rng, 12, 9, 100, 1.3)
	p.Upper = append([]float64(nil), p.X0...)
	o := DefaultOptions()
	o.Precondition = PrecondISP
	o = o.WithDefaults()
	var ps precondState
	if _, err := ps.apply(context.Background(), p, o); err != nil {
		t.Fatal(err)
	}
	for j, v := range o.Mu0 {
		if v != 0 {
			t.Fatalf("warm start μ0[%d] = %v after divergence, want the cold 0", j, v)
		}
	}
	sol, err := SolveDiagonal(context.Background(), p, &Options{Precondition: PrecondISP})
	if !errors.Is(err, ErrInfeasible) || sol != nil {
		t.Fatalf("SolveDiagonal = (%v, %v), want (nil, ErrInfeasible)", sol, err)
	}
}

func TestParsePrecond(t *testing.T) {
	for s, want := range map[string]Precond{
		"": PrecondNone, "none": PrecondNone, "scale": PrecondScale, "isp": PrecondISP,
	} {
		got, err := ParsePrecond(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecond(%q) = %v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"bogus", "sinkhorn"} {
		if _, err := ParsePrecond(bad); err == nil {
			t.Fatalf("ParsePrecond accepted %q", bad)
		}
	}
	if PrecondISP.String() != "isp" || PrecondNone.String() != "none" {
		t.Fatal("Precond.String mismatch")
	}
}
