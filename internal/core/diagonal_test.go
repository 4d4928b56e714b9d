package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"

	"sea/internal/metrics"
	"sea/internal/parsim"
	"sea/internal/trace"
)

// tightOpts returns options for high-accuracy solves in tests.
func tightOpts() *Options {
	o := DefaultOptions()
	o.Epsilon = 1e-10
	o.Criterion = DualGradient
	o.MaxIterations = 500000
	return o
}

// randFixed generates a random feasible fixed-totals problem with the
// paper's Table 1 construction: x⁰ uniform in [.1, hi], γ = 1/x⁰, totals a
// multiple of the prior sums.
func randFixed(rng *rand.Rand, m, n int, hi, factor float64) *DiagonalProblem {
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*(hi-0.1)
		gamma[k] = 1 / x0[k]
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s0[i] += factor * x0[i*n+j]
			d0[j] += factor * x0[i*n+j]
		}
	}
	p, err := NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		panic(err)
	}
	return p
}

// randElastic generates a random elastic-totals problem.
func randElastic(rng *rand.Rand, m, n int) *DiagonalProblem {
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = rng.Float64() * 100
		gamma[k] = 0.1 + rng.Float64()
	}
	s0 := make([]float64, m)
	alpha := make([]float64, m)
	for i := range s0 {
		s0[i] = rng.Float64() * 100 * float64(n)
		alpha[i] = 0.1 + rng.Float64()
	}
	d0 := make([]float64, n)
	beta := make([]float64, n)
	for j := range d0 {
		d0[j] = rng.Float64() * 100 * float64(m)
		beta[j] = 0.1 + rng.Float64()
	}
	p, err := NewElastic(m, n, x0, gamma, s0, alpha, d0, beta)
	if err != nil {
		panic(err)
	}
	return p
}

// randBalanced generates a random SAM estimation problem.
func randBalanced(rng *rand.Rand, n int) *DiagonalProblem {
	x0 := make([]float64, n*n)
	gamma := make([]float64, n*n)
	for k := range x0 {
		x0[k] = rng.Float64() * 50
		gamma[k] = 0.1 + rng.Float64()
	}
	s0 := make([]float64, n)
	alpha := make([]float64, n)
	for i := range s0 {
		s0[i] = rng.Float64() * 50 * float64(n)
		alpha[i] = 0.1 + rng.Float64()
	}
	p, err := NewBalanced(n, x0, gamma, s0, alpha)
	if err != nil {
		panic(err)
	}
	return p
}

func TestFixedExactRecovery(t *testing.T) {
	// If the prior already satisfies the totals, the solution is the prior.
	rng := rand.New(rand.NewPCG(1, 1))
	p := randFixed(rng, 5, 7, 100, 1) // factor 1: totals equal the prior sums
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatal("not converged")
	}
	for k := range sol.X {
		if math.Abs(sol.X[k]-p.X0[k]) > 1e-7 {
			t.Fatalf("X[%d] = %g, want prior %g", k, sol.X[k], p.X0[k])
		}
	}
	if sol.Objective > 1e-10 {
		t.Errorf("objective = %g, want ~0", sol.Objective)
	}
}

func TestFixedUniformKnownSolution(t *testing.T) {
	// γ = 1, x⁰ = 0, all totals equal: by symmetry x_ij = c/n.
	n := 4
	x0 := make([]float64, n*n)
	gamma := make([]float64, n*n)
	s0 := make([]float64, n)
	d0 := make([]float64, n)
	for k := range gamma {
		gamma[k] = 1
	}
	for i := range s0 {
		s0[i] = 8
		d0[i] = 8
	}
	p, err := NewFixed(n, n, x0, gamma, s0, d0)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	for k := range sol.X {
		if math.Abs(sol.X[k]-2) > 1e-8 {
			t.Fatalf("X[%d] = %g, want 2", k, sol.X[k])
		}
	}
}

func TestFixedKKT(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.IntN(8)
		n := 2 + rng.IntN(8)
		p := randFixed(rng, m, n, 1000, 2)
		sol, err := SolveDiagonal(context.Background(), p, tightOpts())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep := CheckKKT(p, sol)
		// Row residual is the stopping quantity; everything else is exact
		// by construction of the phases.
		if !rep.Satisfied(1e-6) {
			t.Errorf("trial %d (%d×%d): KKT violated: %+v", trial, m, n, rep)
		}
	}
}

func TestElasticExactRecovery(t *testing.T) {
	// Priors that are already mutually consistent are reproduced exactly.
	rng := rand.New(rand.NewPCG(3, 3))
	m, n := 4, 6
	p := randElastic(rng, m, n)
	// Overwrite totals with the prior sums so (x⁰, rowsums, colsums) is
	// feasible with zero objective.
	for i := 0; i < m; i++ {
		p.S0[i] = 0
		for j := 0; j < n; j++ {
			p.S0[i] += p.X0[i*n+j]
		}
	}
	for j := 0; j < n; j++ {
		p.D0[j] = 0
		for i := 0; i < m; i++ {
			p.D0[j] += p.X0[i*n+j]
		}
	}
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective > 1e-8 {
		t.Errorf("objective = %g, want ~0", sol.Objective)
	}
	for k := range sol.X {
		if math.Abs(sol.X[k]-p.X0[k]) > 1e-6 {
			t.Fatalf("X[%d] = %g, want %g", k, sol.X[k], p.X0[k])
		}
	}
}

func TestElasticKKTAndDuality(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.IntN(6)
		n := 2 + rng.IntN(6)
		p := randElastic(rng, m, n)
		sol, err := SolveDiagonal(context.Background(), p, tightOpts())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep := CheckKKT(p, sol)
		if !rep.Satisfied(1e-6) {
			t.Errorf("trial %d: KKT violated: %+v", trial, rep)
		}
		// Strong duality at the optimum.
		gap := sol.Gap()
		if math.Abs(gap) > 1e-5*(1+math.Abs(sol.Objective)) {
			t.Errorf("trial %d: duality gap %g (obj %g, dual %g)", trial, gap, sol.Objective, sol.DualValue)
		}
	}
}

func TestBalancedKKTAndBalance(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.IntN(8)
		p := randBalanced(rng, n)
		sol, err := SolveDiagonal(context.Background(), p, tightOpts())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep := CheckKKT(p, sol)
		if !rep.Satisfied(1e-6) {
			t.Errorf("trial %d: KKT violated: %+v", trial, rep)
		}
		// Definitional SAM property: row i total equals column i total.
		rowSum := make([]float64, n)
		colSum := make([]float64, n)
		p.RowSums(sol.X, rowSum)
		p.ColSums(sol.X, colSum)
		for i := 0; i < n; i++ {
			if math.Abs(rowSum[i]-colSum[i]) > 1e-6*(1+math.Abs(rowSum[i])) {
				t.Errorf("trial %d: account %d unbalanced: receipts %g vs expenditures %g",
					trial, i, rowSum[i], colSum[i])
			}
		}
		if sol.D[0] != sol.S[0] {
			t.Error("balanced solution should share totals")
		}
	}
}

func TestBalancedExactRecovery(t *testing.T) {
	// A symmetric prior with matching totals is already optimal.
	n := 5
	rng := rand.New(rand.NewPCG(6, 6))
	x0 := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.Float64() * 10
			x0[i*n+j] = v
			x0[j*n+i] = v
		}
	}
	gamma := make([]float64, n*n)
	alpha := make([]float64, n)
	s0 := make([]float64, n)
	for k := range gamma {
		gamma[k] = 1
	}
	for i := 0; i < n; i++ {
		alpha[i] = 1
		for j := 0; j < n; j++ {
			s0[i] += x0[i*n+j]
		}
	}
	p, err := NewBalanced(n, x0, gamma, s0, alpha)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective > 1e-9 {
		t.Errorf("objective = %g, want ~0", sol.Objective)
	}
}

func TestProcsInvariance(t *testing.T) {
	// The parallel phases write disjoint ranges, so the result must be
	// bit-identical for any worker count.
	rng := rand.New(rand.NewPCG(7, 7))
	p := randFixed(rng, 12, 9, 500, 2)
	o := tightOpts()
	o.Procs = 1
	ref, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 7} {
		o := tightOpts()
		o.Procs = procs
		sol, err := SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Iterations != ref.Iterations {
			t.Errorf("procs=%d: iterations %d vs %d", procs, sol.Iterations, ref.Iterations)
		}
		for k := range sol.X {
			if sol.X[k] != ref.X[k] {
				t.Fatalf("procs=%d: X[%d] differs: %g vs %g", procs, k, sol.X[k], ref.X[k])
			}
		}
	}
}

func TestCriteriaAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	p := randFixed(rng, 6, 6, 100, 2)
	var objs []float64
	for _, crit := range []Criterion{MaxAbsDelta, RelBalance, DualGradient} {
		o := DefaultOptions()
		o.Criterion = crit
		o.Epsilon = 1e-9
		o.MaxIterations = 500000
		sol, err := SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatalf("%v: %v", crit, err)
		}
		objs = append(objs, sol.Objective)
	}
	for i := 1; i < len(objs); i++ {
		if math.Abs(objs[i]-objs[0]) > 1e-5*(1+math.Abs(objs[0])) {
			t.Errorf("criteria disagree on objective: %v", objs)
		}
	}
}

func TestCheckEvery(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	p := randElastic(rng, 8, 8)
	var checks [2]int64
	for idx, every := range []int{1, 5} {
		o := tightOpts()
		o.CheckEvery = every
		var c metrics.Counters
		o.Trace = &c
		sol, err := SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Converged {
			t.Fatal("not converged")
		}
		if every > 1 && sol.Iterations%every != 0 {
			t.Errorf("CheckEvery=%d but stopped at iteration %d", every, sol.Iterations)
		}
		checks[idx] = c.Snapshot().ConvChecks
	}
	if checks[1] >= checks[0] {
		t.Errorf("CheckEvery=5 ran %d checks, CheckEvery=1 ran %d; want fewer", checks[1], checks[0])
	}
}

func TestWarmStart(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	p := randElastic(rng, 10, 10)
	o := tightOpts()
	cold, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	o2 := tightOpts()
	o2.Mu0 = cold.Mu
	warm, err := SolveDiagonal(context.Background(), p, o2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
	if warm.Iterations > 2 {
		t.Errorf("warm start from the optimum took %d iterations, want <= 2", warm.Iterations)
	}
}

func TestUpperBounds(t *testing.T) {
	// Without bounds one entry wants to be large; cap it and verify the
	// bound binds and KKT still holds.
	m, n := 3, 3
	x0 := []float64{
		10, 0, 0,
		0, 0, 0,
		0, 0, 0,
	}
	gamma := make([]float64, 9)
	for k := range gamma {
		gamma[k] = 1
	}
	s0 := []float64{9, 3, 3}
	d0 := []float64{9, 3, 3}
	upper := make([]float64, 9)
	for k := range upper {
		upper[k] = math.Inf(1)
	}
	upper[0] = 4 // cap x_00
	p := &DiagonalProblem{M: m, N: n, X0: x0, Gamma: gamma, S0: s0, D0: d0, Upper: upper, Kind: FixedTotals}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] > 4+1e-9 {
		t.Errorf("X[0,0] = %g exceeds bound 4", sol.X[0])
	}
	rep := CheckKKT(p, sol)
	if !rep.Satisfied(1e-6) {
		t.Errorf("KKT violated with bounds: %+v", rep)
	}
}

func TestNotConverged(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	p := randElastic(rng, 10, 10)
	o := tightOpts()
	o.MaxIterations = 1
	sol, err := SolveDiagonal(context.Background(), p, o)
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if sol == nil || sol.Converged {
		t.Error("should return non-converged last iterate")
	}
	if sol.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", sol.Iterations)
	}
}

func TestInfeasibleTotals(t *testing.T) {
	x0 := []float64{1, 1, 1, 1}
	gamma := []float64{1, 1, 1, 1}
	if _, err := NewFixed(2, 2, x0, gamma, []float64{3, 3}, []float64{1, 1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("unbalanced totals: err = %v, want ErrInfeasible", err)
	}
	if _, err := NewFixed(2, 2, x0, gamma, []float64{-1, 5}, []float64{2, 2}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative total: err = %v, want ErrInfeasible", err)
	}
}

func TestValidationErrors(t *testing.T) {
	x0 := []float64{1, 1, 1, 1}
	gamma := []float64{1, 1, 1, 1}
	if _, err := NewFixed(0, 2, nil, nil, nil, nil); err == nil {
		t.Error("zero dims accepted")
	}
	if _, err := NewFixed(2, 2, x0[:3], gamma, []float64{2, 2}, []float64{2, 2}); err == nil {
		t.Error("short X0 accepted")
	}
	badGamma := []float64{1, 0, 1, 1}
	if _, err := NewFixed(2, 2, x0, badGamma, []float64{2, 2}, []float64{2, 2}); err == nil {
		t.Error("zero gamma accepted")
	}
	if _, err := NewBalanced(2, x0, gamma, []float64{2, 2}, []float64{1, -1}); err == nil {
		t.Error("negative alpha accepted")
	}
	p := &DiagonalProblem{M: 2, N: 3, X0: make([]float64, 6), Gamma: []float64{1, 1, 1, 1, 1, 1}, S0: []float64{1, 1}, Alpha: []float64{1, 1}, Kind: Balanced}
	if err := p.Validate(); err == nil {
		t.Error("non-square balanced accepted")
	}
}

// TestNilProblem: a nil problem is an error from validation and from both
// solvers, never a nil dereference.
func TestNilProblem(t *testing.T) {
	const want = "core: nil problem"
	var d *DiagonalProblem
	var g *GeneralProblem
	checks := map[string]func() error{
		"DiagonalProblem.Validate": d.Validate,
		"GeneralProblem.Validate":  func() error { return g.Validate(true) },
		"SolveDiagonal": func() error {
			_, err := SolveDiagonal(context.Background(), nil, nil)
			return err
		},
		"SolveGeneral": func() error {
			_, err := SolveGeneral(context.Background(), nil, nil)
			return err
		},
	}
	for name, check := range checks {
		if err := check(); err == nil || err.Error() != want {
			t.Errorf("%s(nil) = %v, want %q", name, err, want)
		}
	}
	var ve *ValidationError
	if err := d.Validate(); !errors.As(err, &ve) {
		t.Errorf("DiagonalProblem.Validate(nil) = %T, want *ValidationError", err)
	}
}

func TestCountersAndTrace(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	p := randFixed(rng, 5, 4, 100, 2)
	o := tightOpts()
	var c metrics.Counters
	rec := &parsim.Recorder{}
	o.Trace = trace.Multi(&c, rec)
	sol, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Iterations != int64(sol.Iterations) {
		t.Errorf("counter iterations %d != solution iterations %d", snap.Iterations, sol.Iterations)
	}
	wantEq := int64(sol.Iterations) * int64(p.M+p.N)
	if snap.Equilibrations != wantEq {
		t.Errorf("equilibrations = %d, want %d", snap.Equilibrations, wantEq)
	}
	if snap.Ops <= 0 || snap.SerialOps <= 0 || snap.ConvChecks <= 0 {
		t.Errorf("counters not populated: %v", snap)
	}
	if len(rec.Phases) != sol.Iterations {
		t.Errorf("trace has %d phases, want %d", len(rec.Phases), sol.Iterations)
	}
	// The per-task costs are the counters' parallel work split by task, and
	// the serial phases are the counters' serial work.
	var taskOps, serialOps int64
	for i, ph := range rec.Phases {
		if len(ph.Row) != p.M || len(ph.Col) != p.N {
			t.Fatalf("phase %d: task vectors sized %d/%d", i, len(ph.Row), len(ph.Col))
		}
		for _, v := range ph.Row {
			if v <= 0 {
				t.Fatalf("phase %d: zero row task cost", i)
			}
			taskOps += v
		}
		for _, v := range ph.Col {
			taskOps += v
		}
		serialOps += ph.Serial
	}
	if taskOps != snap.Ops || serialOps != snap.SerialOps {
		t.Errorf("task costs sum to %d ops / %d serial, counters report %d / %d", taskOps, serialOps, snap.Ops, snap.SerialOps)
	}
}

func TestBoundMultipliersAgrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	p := randFixed(rng, 6, 6, 100, 2)
	ref, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := tightOpts()
	o.BoundMultipliers = true
	o.MultiplierBound = 1 // absurdly tight to force renormalization
	sol, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	for k := range sol.X {
		if math.Abs(sol.X[k]-ref.X[k]) > 1e-5*(1+math.Abs(ref.X[k])) {
			t.Fatalf("bounded-multiplier run diverged at %d: %g vs %g", k, sol.X[k], ref.X[k])
		}
	}
	rep := CheckKKT(p, sol)
	if !rep.Satisfied(1e-6) {
		t.Errorf("KKT violated after renormalization: %+v", rep)
	}
}

func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	m, n := 5, 6
	p := randFixed(rng, m, n, 100, 2)
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Permute rows by reversal and solve the permuted problem.
	perm := func(src []float64, rows bool) []float64 {
		out := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if rows {
					out[(m-1-i)*n+j] = src[i*n+j]
				}
			}
		}
		return out
	}
	p2 := &DiagonalProblem{
		M: m, N: n,
		X0:    perm(p.X0, true),
		Gamma: perm(p.Gamma, true),
		S0:    make([]float64, m),
		D0:    p.D0,
		Kind:  FixedTotals,
	}
	for i := 0; i < m; i++ {
		p2.S0[m-1-i] = p.S0[i]
	}
	sol2, err := SolveDiagonal(context.Background(), p2, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a := sol.X[i*n+j]
			b := sol2.X[(m-1-i)*n+j]
			if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
				t.Fatalf("permutation invariance violated at (%d,%d): %g vs %g", i, j, a, b)
			}
		}
	}
}

// TestIterationsAdditiveInTolerance checks the paper's observation under
// (77): decreasing ε̄ by 10× should produce an additive, not multiplicative,
// increase in iterations (geometric convergence).
func TestIterationsAdditiveInTolerance(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	p := randElastic(rng, 10, 10)
	var iters []int
	for _, eps := range []float64{1e-4, 1e-6, 1e-8} {
		o := DefaultOptions()
		o.Criterion = DualGradient
		o.Epsilon = eps
		o.MaxIterations = 500000
		sol, err := SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		iters = append(iters, sol.Iterations)
	}
	// Additive: the increment per decade should be roughly constant, so the
	// second increment must not blow up relative to the first.
	inc1 := iters[1] - iters[0]
	inc2 := iters[2] - iters[1]
	if inc1 > 0 && inc2 > 3*inc1+5 {
		t.Errorf("iteration growth not additive: %v (increments %d, %d)", iters, inc1, inc2)
	}
}

func TestMaxAbsDeltaCriterion(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 16))
	p := randFixed(rng, 6, 6, 100, 2)
	o := DefaultOptions()
	o.Criterion = MaxAbsDelta
	o.Epsilon = 1e-8
	o.MaxIterations = 500000
	sol, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatal("not converged")
	}
	if sol.Iterations < 2 {
		t.Errorf("MaxAbsDelta needs at least two iterations, got %d", sol.Iterations)
	}
	rep := CheckKKT(p, sol)
	if !rep.Satisfied(1e-4) {
		t.Errorf("KKT: %+v", rep)
	}
}

func TestObjectiveAndSums(t *testing.T) {
	p := &DiagonalProblem{
		M: 2, N: 2,
		X0:    []float64{1, 2, 3, 4},
		Gamma: []float64{1, 1, 1, 1},
		S0:    []float64{3, 7},
		D0:    []float64{4, 6},
		Kind:  FixedTotals,
	}
	x := []float64{2, 2, 2, 4}
	rs := make([]float64, 2)
	cs := make([]float64, 2)
	p.RowSums(x, rs)
	p.ColSums(x, cs)
	if rs[0] != 4 || rs[1] != 6 {
		t.Errorf("RowSums = %v", rs)
	}
	if cs[0] != 4 || cs[1] != 6 {
		t.Errorf("ColSums = %v", cs)
	}
	if got := p.Objective(x, nil, nil); got != 1+0+1+0 {
		t.Errorf("Objective = %g, want 2", got)
	}
}

func TestKindString(t *testing.T) {
	if FixedTotals.String() != "fixed" || ElasticTotals.String() != "elastic" || Balanced.String() != "balanced" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind should still format")
	}
}

// TestSolveYieldsAtIterationStart: a solve offers its processor at every
// cancellation poll, so at GOMAXPROCS 1 a goroutine made runnable just
// before a long solve runs within its first iterations, instead of waiting
// for the runtime to preempt the solve (up to 10 ms later). A GC mark
// worker is such a goroutine.
func TestSolveYieldsAtIterationStart(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := DefaultOptions()
	o.Criterion = MaxAbsDelta
	o.Epsilon = 1e-11
	o.MaxIterations = 5000
	var ran atomic.Bool
	ranBy2 := false
	o.Trace = trace.Func(func(e trace.Event) {
		if e.Iteration == 2 {
			ranBy2 = ran.Load()
		}
	})
	p := onsetProblem(t)
	go ran.Store(true)
	sol, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iterations < 20 {
		t.Fatalf("solve took %d iterations, want a long one (≥ 20)", sol.Iterations)
	}
	if !ranBy2 {
		t.Fatal("a goroutine started before the solve had not run by iteration 2")
	}
}
