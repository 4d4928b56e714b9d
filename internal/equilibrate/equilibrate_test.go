package equilibrate

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// bisect finds the root of p.Phi(λ) = p.R by bisection, as an independent
// reference for the sweep-based solver.
func bisect(p *Problem) (float64, bool) {
	lo, hi := -1.0, 1.0
	for i := 0; p.Phi(lo) > p.R; i++ {
		lo *= 2
		if i > 200 {
			return 0, false
		}
	}
	for i := 0; p.Phi(hi) < p.R; i++ {
		hi *= 2
		if i > 200 {
			return 0, false
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if p.Phi(mid) < p.R {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}

// step is one kernel call on a subproblem, its output block and State.
type step func(*Kernel) (Result, error)

// fixed is the call that solves p with output block x and warm-start state
// st.
func fixed(p *Problem, x []float64, st *State) step {
	return func(k *Kernel) (Result, error) { return k.Solve(p, x, st) }
}

// interval is the call that solves p with the interval total lo ≤ Σx ≤ hi.
func interval(p *Problem, lo, hi float64, x []float64, st *State) step {
	return func(k *Kernel) (Result, error) { return k.SolveInterval(p, lo, hi, x, st) }
}

// solve solves p cold in a fresh kernel.
func solve(p *Problem, x []float64) (Result, error) {
	return NewKernel(0).Solve(p, x, nil)
}

// solveInterval solves p cold in a fresh kernel with an interval total.
func solveInterval(p *Problem, lo, hi float64, x []float64) (Result, error) {
	return NewKernel(0).SolveInterval(p, lo, hi, x, nil)
}

// solveInsertion is the reference side of the bit-identity tests: the
// subproblem in a fresh kernel, sorted by plain insertion whatever its
// size — the simplest canonical sort. call should pass a nil or freshly
// Reset State, so the solve runs cold.
func solveInsertion(call step) (Result, error) {
	defer func(old int) { batchInsertionMax = old }(batchInsertionMax)
	batchInsertionMax = math.MaxInt
	return call(NewKernel(0))
}

func solveOK(t *testing.T, p *Problem) ([]float64, Result) {
	t.Helper()
	x := make([]float64, len(p.C))
	res, err := solve(p, x)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return x, res
}

func TestSimpleFixed(t *testing.T) {
	// min (x1-1)² + (x2-1)²  s.t. x1+x2 = 4  →  x = (2,2), λ = 2.
	p := &Problem{C: []float64{1, 1}, A: []float64{0.5, 0.5}, R: 4}
	x, res := solveOK(t, p)
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want (2,2)", x)
	}
	if math.Abs(res.Lambda-2) > 1e-12 {
		t.Errorf("lambda = %g, want 2", res.Lambda)
	}
	if math.Abs(res.Total-4) > 1e-12 {
		t.Errorf("total = %g, want 4", res.Total)
	}
	if res.Ops <= 0 {
		t.Error("ops not charged")
	}
}

func TestNonnegativityBinds(t *testing.T) {
	// c = (3,-2), a = (.5,.5), fixed total 1: only term 1 active,
	// 3 + λ/2 = 1 → λ = -4; term 2 value -2-2 < 0 stays at zero.
	p := &Problem{C: []float64{3, -2}, A: []float64{0.5, 0.5}, R: 1}
	x, res := solveOK(t, p)
	if math.Abs(x[0]-1) > 1e-12 || x[1] != 0 {
		t.Errorf("x = %v, want (1,0)", x)
	}
	if math.Abs(res.Lambda+4) > 1e-12 {
		t.Errorf("lambda = %g, want -4", res.Lambda)
	}
}

func TestElasticTotal(t *testing.T) {
	// min (x-1)² + (s-3)²  s.t. x = s, x ≥ 0.
	// Optimum: x = s = 2, λ from s = s0 - eλ: 2 = 3 - 0.5λ → λ = 2.
	p := &Problem{C: []float64{1}, A: []float64{0.5}, E: 0.5, R: 3}
	x, res := solveOK(t, p)
	if math.Abs(x[0]-2) > 1e-12 {
		t.Errorf("x = %v, want 2", x)
	}
	if math.Abs(res.Lambda-2) > 1e-12 {
		t.Errorf("lambda = %g, want 2", res.Lambda)
	}
}

func TestUpperBounds(t *testing.T) {
	// Both variables want to be large, but x1 ≤ 1.5 saturates.
	p := &Problem{
		C: []float64{1, 1},
		A: []float64{0.5, 0.5},
		U: []float64{1.5, math.Inf(1)},
		R: 4,
	}
	x, res := solveOK(t, p)
	if math.Abs(x[0]-1.5) > 1e-12 {
		t.Errorf("x[0] = %g, want saturated 1.5", x[0])
	}
	if math.Abs(x[1]-2.5) > 1e-12 {
		t.Errorf("x[1] = %g, want 2.5", x[1])
	}
	// λ: x2 = 1 + λ/2 = 2.5 → λ = 3.
	if math.Abs(res.Lambda-3) > 1e-12 {
		t.Errorf("lambda = %g, want 3", res.Lambda)
	}
}

func TestTargetAtSumOfBounds(t *testing.T) {
	p := &Problem{
		C: []float64{0, 0},
		A: []float64{1, 1},
		U: []float64{1, 2},
		R: 3,
	}
	x, _ := solveOK(t, p)
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Errorf("x = %v, want (1,2)", x)
	}
}

func TestZeroTarget(t *testing.T) {
	p := &Problem{C: []float64{2, 5}, A: []float64{1, 1}, R: 0}
	x, res := solveOK(t, p)
	if x[0] != 0 || x[1] != 0 {
		t.Errorf("x = %v, want zeros", x)
	}
	if got := p.Phi(res.Lambda); math.Abs(got) > 1e-12 {
		t.Errorf("Phi(lambda) = %g, want 0", got)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{C: []float64{1}, A: []float64{1}, R: -1}
	x := make([]float64, 1)
	if _, err := solve(p, x); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative fixed total: err = %v, want ErrInfeasible", err)
	}
	p2 := &Problem{C: []float64{0}, A: []float64{1}, U: []float64{1}, R: 2}
	if _, err := solve(p2, x); !errors.Is(err, ErrInfeasible) {
		t.Errorf("target above bound sum: err = %v, want ErrInfeasible", err)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := &Problem{E: 0.5, R: 3}
	_, res := solveOK(t, p)
	if math.Abs(res.Lambda-6) > 1e-12 {
		t.Errorf("lambda = %g, want 6", res.Lambda)
	}
	pFixed := &Problem{R: 0}
	if _, err := solve(pFixed, nil); err != nil {
		t.Errorf("empty fixed zero-target: %v", err)
	}
	pBad := &Problem{R: 1}
	if _, err := solve(pBad, nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("empty fixed positive target: err = %v", err)
	}
}

func TestValidation(t *testing.T) {
	x := make([]float64, 2)
	p := &Problem{C: []float64{1, 1}, A: []float64{1}, R: 1}
	if _, err := solve(p, x); err == nil {
		t.Error("length mismatch accepted")
	}
	p2 := &Problem{C: []float64{1}, A: []float64{0}, R: 1}
	if _, err := solve(p2, x[:1]); err == nil {
		t.Error("zero slope accepted")
	}
	p3 := &Problem{C: []float64{1}, A: []float64{1}, E: -1, R: 1}
	if _, err := solve(p3, x[:1]); err == nil {
		t.Error("negative elastic slope accepted")
	}
}

// randomProblem builds a random feasible instance. withElastic and withBounds
// toggle those features.
func randomProblem(rng *rand.Rand, n int, withElastic, withBounds bool) *Problem {
	p := &Problem{
		C: make([]float64, n),
		A: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64() * 10
		p.A[j] = 0.01 + rng.Float64()*5
	}
	if withBounds {
		p.U = make([]float64, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				p.U[j] = math.Inf(1)
			} else {
				p.U[j] = 0.5 + rng.Float64()*10
			}
		}
	}
	if withElastic {
		p.E = 0.01 + rng.Float64()
		p.R = rng.NormFloat64() * 20
	} else {
		// Pick a reachable target.
		maxR := 0.0
		if p.U == nil {
			maxR = 1000
		} else {
			for _, u := range p.U {
				if math.IsInf(u, 1) {
					maxR = 1000
					break
				}
				maxR += u
			}
		}
		p.R = rng.Float64() * maxR
	}
	return p
}

// checkSolution verifies the KKT conditions of a solve: the root property
// φ(λ)=R, the clamp form of x, and feasibility Σx + eλ = R.
func checkSolution(t *testing.T, p *Problem, x []float64, res Result) {
	t.Helper()
	scale := 1 + math.Abs(p.R) + math.Abs(res.Lambda)
	if got := p.Phi(res.Lambda); math.Abs(got-p.R) > 1e-8*scale {
		t.Errorf("Phi(λ)=%g, want R=%g", got, p.R)
	}
	var total float64
	for j := range x {
		want := p.C[j] + p.A[j]*res.Lambda
		if want < 0 {
			want = 0
		}
		if p.U != nil && want > p.U[j] {
			want = p.U[j]
		}
		if math.Abs(x[j]-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("x[%d]=%g, want clamp %g", j, x[j], want)
		}
		if x[j] < 0 {
			t.Errorf("x[%d]=%g negative", j, x[j])
		}
		total += x[j]
	}
	if math.Abs(total-res.Total) > 1e-8*(1+math.Abs(total)) {
		t.Errorf("Total=%g, but Σx=%g", res.Total, total)
	}
}

func TestRandomAgainstBisection(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	k := NewKernel(0)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(60)
		p := randomProblem(rng, n, trial%2 == 0, trial%3 == 0)
		x := make([]float64, n)
		res, err := k.Solve(p, x, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkSolution(t, p, x, res)
		ref, ok := bisect(p)
		if !ok {
			continue
		}
		// Compare via Phi, since flat segments make λ non-unique.
		if math.Abs(p.Phi(ref)-p.Phi(res.Lambda)) > 1e-6*(1+math.Abs(p.R)) {
			t.Errorf("trial %d: sweep λ=%g vs bisection λ=%g disagree in Phi", trial, res.Lambda, ref)
		}
	}
}

// Property: the multiplier is monotone nondecreasing in the target R.
func TestLambdaMonotoneInTarget(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		p := randomProblem(r, 1+r.IntN(20), false, false)
		x := make([]float64, len(p.C))
		p.R = 1 + r.Float64()*100
		res1, err1 := solve(p, x)
		p2 := *p
		p2.R = p.R + 1 + r.Float64()*100
		res2, err2 := solve(&p2, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return res2.Lambda >= res1.Lambda-1e-9
	}
	cfg := &quick.Config{MaxCount: 200, Rand: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: scaling all weights γ by a constant leaves the primal solution
// unchanged (the objective is scaled but the minimizer is not) for fixed
// totals.
func TestWeightScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(20)
		p := randomProblem(rng, n, false, false)
		k := 0.1 + rng.Float64()*10
		// Scaling γ by k scales a = 1/(2γ) by 1/k. c = x⁰ + aμ also changes
		// unless μ = 0; emulate μ = 0 by treating C as x⁰ directly.
		p2 := &Problem{C: p.C, A: make([]float64, n), R: p.R}
		for j := range p.A {
			p2.A[j] = p.A[j] / k
		}
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		if _, err := solve(p, x1); err != nil {
			t.Fatal(err)
		}
		if _, err := solve(p2, x2); err != nil {
			t.Fatal(err)
		}
		for j := range x1 {
			if math.Abs(x1[j]-x2[j]) > 1e-6*(1+math.Abs(x1[j])) {
				t.Fatalf("trial %d: scale invariance violated at %d: %g vs %g", trial, j, x1[j], x2[j])
			}
		}
	}
}

func TestDuplicateBreakpoints(t *testing.T) {
	// All breakpoints identical: c_j = 0, a_j = 1 → θ_j = 0 for all j.
	n := 10
	p := &Problem{C: make([]float64, n), A: make([]float64, n), R: 5}
	for j := 0; j < n; j++ {
		p.A[j] = 1
	}
	x, res := solveOK(t, p)
	for j := range x {
		if math.Abs(x[j]-0.5) > 1e-12 {
			t.Errorf("x[%d] = %g, want 0.5", j, x[j])
		}
	}
	if math.Abs(res.Lambda-0.5) > 1e-12 {
		t.Errorf("lambda = %g, want 0.5", res.Lambda)
	}
}

func TestHugeSpread(t *testing.T) {
	// Mimic the paper's data spread: x⁰ ∈ [.1, 10000], γ = 1/x⁰.
	rng := rand.New(rand.NewPCG(19, 20))
	n := 500
	p := &Problem{C: make([]float64, n), A: make([]float64, n)}
	var sum float64
	for j := 0; j < n; j++ {
		x0 := 0.1 + rng.Float64()*9999.9
		p.C[j] = x0
		p.A[j] = x0 / 2 // a = 1/(2γ) with γ = 1/x⁰
		sum += x0
	}
	p.R = 2 * sum // the paper doubles the totals
	x, res := solveOK(t, p)
	checkSolution(t, p, x, res)
	if math.Abs(res.Total-p.R) > 1e-6*p.R {
		t.Errorf("total = %g, want %g", res.Total, p.R)
	}
}

// BenchmarkSolve1000 and BenchmarkSolveElastic1000 time one cold
// 1000-term subproblem, fixed and elastic, whose root clamps some cells:
// the interior attempt, then the sort and sweep.
func BenchmarkSolve1000(b *testing.B) {
	rng := rand.New(rand.NewPCG(21, 22))
	p := randomProblem(rng, 1000, false, false)
	k := NewKernel(0)
	x := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Solve(p, x, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveElastic1000(b *testing.B) {
	rng := rand.New(rand.NewPCG(23, 24))
	p := randomProblem(rng, 1000, true, false)
	k := NewKernel(0)
	x := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Solve(p, x, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSolveIntervalSlack(t *testing.T) {
	// Free total 3 lies inside [2, 5]: constraint slack, λ = 0.
	p := &Problem{C: []float64{1, 2}, A: []float64{1, 1}}
	x := make([]float64, 2)
	res, err := solveInterval(p, 2, 5, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda != 0 || x[0] != 1 || x[1] != 2 {
		t.Errorf("slack case wrong: λ=%g x=%v", res.Lambda, x)
	}
	if res.Total != 3 {
		t.Errorf("total = %g", res.Total)
	}
}

func TestSolveIntervalUpperBinds(t *testing.T) {
	// Free total 3 exceeds hi = 2: behaves like a fixed total at 2, λ < 0.
	p := &Problem{C: []float64{1, 2}, A: []float64{1, 1}}
	x := make([]float64, 2)
	res, err := solveInterval(p, 0, 2, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda >= 0 {
		t.Errorf("λ = %g, want negative at the upper bound", res.Lambda)
	}
	if math.Abs(res.Total-2) > 1e-12 {
		t.Errorf("total = %g, want 2", res.Total)
	}
}

func TestSolveIntervalLowerBinds(t *testing.T) {
	p := &Problem{C: []float64{1, 2}, A: []float64{1, 1}}
	x := make([]float64, 2)
	res, err := solveInterval(p, 5, 9, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda <= 0 {
		t.Errorf("λ = %g, want positive at the lower bound", res.Lambda)
	}
	if math.Abs(res.Total-5) > 1e-12 {
		t.Errorf("total = %g, want 5", res.Total)
	}
}

func TestSolveIntervalWithUpperBounds(t *testing.T) {
	// Box bounds clamp the free solution before the interval test.
	p := &Problem{C: []float64{5, 5}, A: []float64{1, 1}, U: []float64{1, 1}}
	x := make([]float64, 2)
	res, err := solveInterval(p, 0, 10, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 2 || x[0] != 1 || x[1] != 1 {
		t.Errorf("bounded slack case wrong: %v total %g", x, res.Total)
	}
}

func TestSolveIntervalErrors(t *testing.T) {
	p := &Problem{C: []float64{1}, A: []float64{1}, E: 0.5}
	x := make([]float64, 1)
	if _, err := solveInterval(p, 0, 1, x); err == nil {
		t.Error("elastic slope accepted")
	}
	p2 := &Problem{C: []float64{1}, A: []float64{1}}
	if _, err := solveInterval(p2, 3, 2, x); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := solveInterval(p2, 0, 1, make([]float64, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSolveBisectionMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(40)
		p := randomProblem(rng, n, trial%2 == 0, trial%3 == 0)
		xe := make([]float64, n)
		xb := make([]float64, n)
		exact, err := solve(p, xe)
		if err != nil {
			t.Fatal(err)
		}
		bis, err := p.SolveBisection(xb, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Phi(bis.Lambda)-p.Phi(exact.Lambda)) > 1e-6*(1+math.Abs(p.R)) {
			t.Fatalf("trial %d: bisection and exact disagree", trial)
		}
		for j := range xe {
			if math.Abs(xe[j]-xb[j]) > 1e-6*(1+math.Abs(xe[j])) {
				t.Fatalf("trial %d: x[%d] differs: %g vs %g", trial, j, xe[j], xb[j])
			}
		}
	}
}

func TestSolveBisectionInfeasible(t *testing.T) {
	p := &Problem{C: []float64{1}, A: []float64{1}, R: -5}
	x := make([]float64, 1)
	if _, err := p.SolveBisection(x, 1e-10); err == nil {
		t.Error("unreachable target accepted")
	}
}

// FuzzKernel feeds arbitrary coefficients to the kernel; whenever a solve
// succeeds, the root property and the clamp form must hold.
func FuzzKernel(f *testing.F) {
	f.Add(1.0, 0.5, 2.0, 0.25, 3.0, 0.0)
	f.Add(-2.0, 1.0, 5.0, 2.0, 0.0, 0.5)
	f.Add(0.0, 0.1, 0.0, 0.1, 1.0, 0.0)
	// Breakpoints −1 and 1 with the root on the last one (φ(1) = 2), one ulp
	// of target either side of it, and with an elastic term.
	f.Add(1.0, 1.0, -1.0, 1.0, 2.0, 0.0)
	f.Add(1.0, 1.0, -1.0, 1.0, math.Nextafter(2, 3), 0.0)
	f.Add(1.0, 1.0, -1.0, 1.0, math.Nextafter(2, 1), 0.0)
	f.Add(1.0, 1.0, -1.0, 1.0, 2.5, 0.25)
	// ±0 coefficients with the root at 0.
	f.Add(math.Copysign(0, -1), 1.0, 0.0, 2.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, c1, a1, c2, a2, r, e float64) {
		for _, v := range []float64{c1, a1, c2, a2, r, e} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return
			}
		}
		if a1 <= 1e-9 || a2 <= 1e-9 || e < 0 {
			return
		}
		p := &Problem{C: []float64{c1, c2}, A: []float64{a1, a2}, E: e, R: r}
		x := make([]float64, 2)
		res, err := solve(p, x)
		if err != nil {
			return // infeasible inputs are fine
		}
		scale := 1 + math.Abs(r) + math.Abs(res.Lambda)*(a1+a2+e)
		if got := p.Phi(res.Lambda); math.Abs(got-r) > 1e-6*scale {
			t.Fatalf("Phi(λ)=%g, want %g (λ=%g)", got, r, res.Lambda)
		}
		for j, v := range x {
			if v < 0 {
				t.Fatalf("x[%d] = %g negative", j, v)
			}
		}
	})
}

func TestLowerBoundsBind(t *testing.T) {
	// Both variables want to be small, but x₁ ≥ 3 holds it up:
	// min (x₁−1)² + (x₂−1)² s.t. x₁+x₂ = 5, x₁ ≥ 3 → x = (3, 2), λ = 2.
	p := &Problem{
		C: []float64{1, 1},
		A: []float64{0.5, 0.5},
		L: []float64{3, 0},
		R: 5,
	}
	x, res := solveOK(t, p)
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want (3,2)", x)
	}
	if math.Abs(res.Lambda-2) > 1e-12 {
		t.Errorf("λ = %g, want 2", res.Lambda)
	}
}

func TestLowerBoundsSlack(t *testing.T) {
	// Lower bounds below the unconstrained optimum change nothing.
	base := &Problem{C: []float64{2, 3}, A: []float64{1, 1}, R: 8}
	bounded := &Problem{C: []float64{2, 3}, A: []float64{1, 1}, L: []float64{0.5, 0.5}, R: 8}
	xb := make([]float64, 2)
	xu := make([]float64, 2)
	rb, err := solve(bounded, xb)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := solve(base, xu)
	if err != nil {
		t.Fatal(err)
	}
	if xb[0] != xu[0] || xb[1] != xu[1] || rb.Lambda != ru.Lambda {
		t.Errorf("slack lower bounds changed the solution: %v vs %v", xb, xu)
	}
}

func TestLowerBoundsInfeasible(t *testing.T) {
	p := &Problem{C: []float64{0, 0}, A: []float64{1, 1}, L: []float64{3, 3}, R: 5}
	x := make([]float64, 2)
	if _, err := solve(p, x); !errors.Is(err, ErrInfeasible) {
		t.Errorf("target below Σl accepted: %v", err)
	}
}

func TestLowerEqualsUpperPinsEntry(t *testing.T) {
	// l = u pins a variable exactly.
	p := &Problem{
		C: []float64{1, 1},
		A: []float64{0.5, 0.5},
		L: []float64{2, 0},
		U: []float64{2, math.Inf(1)},
		R: 7,
	}
	x, _ := solveOK(t, p)
	if x[0] != 2 {
		t.Errorf("pinned entry = %g, want 2", x[0])
	}
	if math.Abs(x[1]-5) > 1e-12 {
		t.Errorf("free entry = %g, want 5", x[1])
	}
}

func TestLowerBoundsAgainstBisection(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(30)
		p := randomProblem(rng, n, trial%2 == 0, trial%3 == 0)
		p.L = make([]float64, n)
		var lsum float64
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				p.L[j] = rng.Float64() * 3
			}
			if p.U != nil && p.U[j] < p.L[j] {
				p.U[j] = p.L[j] + rng.Float64()
			}
			lsum += p.L[j]
		}
		if p.E == 0 && p.R < lsum {
			p.R = lsum + rng.Float64()*10
			if p.U != nil {
				var usum float64
				for _, u := range p.U {
					usum += u
				}
				if p.R > usum {
					p.R = (lsum + usum) / 2
				}
			}
		}
		x := make([]float64, n)
		res, err := solve(p, x)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := p.Phi(res.Lambda); math.Abs(got-p.R) > 1e-8*(1+math.Abs(p.R)+math.Abs(res.Lambda)) {
			t.Fatalf("trial %d: Phi(λ)=%g, want %g", trial, got, p.R)
		}
		for j := range x {
			if x[j] < p.L[j]-1e-12 {
				t.Fatalf("trial %d: x[%d]=%g below lower %g", trial, j, x[j], p.L[j])
			}
		}
		ref, ok := bisect(p)
		if ok && math.Abs(p.Phi(ref)-p.Phi(res.Lambda)) > 1e-6*(1+math.Abs(p.R)) {
			t.Fatalf("trial %d: disagrees with bisection", trial)
		}
	}
}
