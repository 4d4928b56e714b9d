package core

import (
	"context"
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
// storages, and every worker count.
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
			if pre.Objective != base.Objective {
				t.Errorf("%s procs=%d: objective %v vs %v", name, procs, pre.Objective, base.Objective)
			}
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

// TestPrecondWarmStartsSatisfyOriginalKKT: the warm-started modes change the
// solve trajectory, so their solutions are compared against the ORIGINAL
// problem's KKT system, not against the baseline iterate: after unscaling,
// the solution must satisfy feasibility and stationarity to the solver's
// tolerance.
func TestPrecondWarmStartsSatisfyOriginalKKT(t *testing.T) {
	for name, p := range precondFamilies(t) {
		for _, mode := range []Precond{PrecondSinkhorn, PrecondISP} {
			opts := DefaultOptions()
			opts.Epsilon = 1e-8
			opts.Criterion = DualGradient
			opts.Precondition = mode
			sol, err := SolveDiagonal(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			if !sol.Converged {
				t.Fatalf("%s %v: not converged", name, mode)
			}
			rep := CheckKKT(p, sol)
			// The dual-gradient tolerance bounds the constraint residuals;
			// stationarity of the interior cells is exact by construction, so
			// the headroom factor covers accumulated rounding only.
			if m := rep.Max(); !(m <= 1e-6) {
				t.Fatalf("%s %v: KKT violation %g (report %+v)", name, mode, m, rep)
			}
		}
	}
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

func TestParsePrecond(t *testing.T) {
	for s, want := range map[string]Precond{
		"": PrecondNone, "none": PrecondNone, "scale": PrecondScale,
		"sinkhorn": PrecondSinkhorn, "isp": PrecondISP,
	} {
		got, err := ParsePrecond(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecond(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePrecond("bogus"); err == nil {
		t.Fatal("ParsePrecond accepted bogus")
	}
	if PrecondISP.String() != "isp" || PrecondNone.String() != "none" {
		t.Fatal("Precond.String mismatch")
	}
}
