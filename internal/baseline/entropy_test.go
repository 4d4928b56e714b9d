package baseline

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"sea/internal/core"
)

// randFixed builds a feasible fixed-totals problem with a strictly positive
// prior and a mild growth factor on the targets.
func randFixed(rng *rand.Rand, m, n int, growth float64) *core.DiagonalProblem {
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = 0.5 + rng.Float64()*10
		gamma[k] = 0.5 + rng.Float64()
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s0[i] += growth * x0[i*n+j]
			d0[j] += growth * x0[i*n+j]
		}
	}
	p, err := core.NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		panic(err)
	}
	return p
}

func randElastic(rng *rand.Rand, m, n int) *core.DiagonalProblem {
	f := randFixed(rng, m, n, 1.2)
	alpha := make([]float64, m)
	beta := make([]float64, n)
	for i := range alpha {
		alpha[i] = 0.5 + rng.Float64()
	}
	for j := range beta {
		beta[j] = 0.5 + rng.Float64()
	}
	p, err := core.NewElastic(m, n, f.X0, f.Gamma, f.S0, alpha, f.D0, beta)
	if err != nil {
		panic(err)
	}
	return p
}

func randBalanced(rng *rand.Rand, n int) *core.DiagonalProblem {
	f := randFixed(rng, n, n, 1.15)
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = 0.5 + rng.Float64()
	}
	p, err := core.NewBalanced(n, f.X0, f.Gamma, f.S0, alpha)
	if err != nil {
		panic(err)
	}
	return p
}

func randInterval(rng *rand.Rand, m, n int) *core.DiagonalProblem {
	f := randFixed(rng, m, n, 1.0)
	slo := make([]float64, m)
	shi := make([]float64, m)
	dlo := make([]float64, n)
	dhi := make([]float64, n)
	for i := range slo {
		c := f.S0[i] * (1.05 + 0.4*rng.Float64())
		slo[i] = c * 0.95
		shi[i] = c * 1.05
	}
	var totLo, totHi float64
	for i := range slo {
		totLo += slo[i]
		totHi += shi[i]
	}
	for j := range dlo {
		dlo[j] = totLo / float64(n) * 0.5
		dhi[j] = totHi / float64(n) * 1.5
	}
	p, err := core.NewInterval(m, n, f.X0, f.Gamma, slo, shi, dlo, dhi)
	if err != nil {
		panic(err)
	}
	return p
}

// toCSR rebuilds a dense problem on a full CSR pattern (same data, sparse
// storage) so dense/CSR agreement can be checked cell for cell.
func toCSR(t *testing.T, p *core.DiagonalProblem) *core.DiagonalProblem {
	t.Helper()
	rows := make([]int, 0, p.M*p.N)
	cols := make([]int, 0, p.M*p.N)
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.N; j++ {
			rows = append(rows, i)
			cols = append(cols, j)
		}
	}
	pt, err := core.NewPatternFromTriplets(p.M, p.N, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	q := *p
	q.Pattern = pt
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return &q
}

func solveTight(t *testing.T, p *core.DiagonalProblem, o *core.Options) *core.Solution {
	t.Helper()
	if o == nil {
		o = core.DefaultOptions()
		o.Epsilon = 1e-10
		o.MaxIterations = 200000
	}
	sol, err := SolveEntropy(context.Background(), p, o)
	if err != nil {
		t.Fatalf("entropy solve: %v", err)
	}
	if !sol.Converged || sol.Status != core.StatusConverged {
		t.Fatalf("entropy solve did not converge: %+v", sol.Status)
	}
	return sol
}

// TestEntropyKKTAllKinds: the entropy solution of every constraint kind, in
// both storage layouts, satisfies the entropy-family KKT conditions to 1e-6 —
// the solver-independent optimality certificate.
func TestEntropyKKTAllKinds(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	cases := []struct {
		name string
		p    *core.DiagonalProblem
	}{
		{"fixed", randFixed(rng, 7, 5, 1.3)},
		{"elastic", randElastic(rng, 6, 8)},
		{"balanced", randBalanced(rng, 6)},
		{"interval", randInterval(rng, 5, 6)},
	}
	for _, tc := range cases {
		for _, sparse := range []bool{false, true} {
			name := tc.name + "/dense"
			p := tc.p
			if sparse {
				name = tc.name + "/csr"
				p = toCSR(t, tc.p)
			}
			t.Run(name, func(t *testing.T) {
				sol := solveTight(t, p, nil)
				rep := core.CheckKKTObjective(p, sol, core.ObjectiveEntropy)
				if !rep.Satisfied(1e-6) {
					t.Fatalf("entropy KKT violated: %+v", rep)
				}
				if sol.ObjectiveKind != core.ObjectiveEntropy {
					t.Fatalf("ObjectiveKind = %v, want entropy", sol.ObjectiveKind)
				}
				if math.IsNaN(sol.Objective) || math.IsInf(sol.Objective, 0) {
					t.Fatalf("KL objective = %g", sol.Objective)
				}
			})
		}
	}
}

// TestEntropyDeterministicAcrossProcs: sweeps are serial by construction, so
// any Procs setting must produce bit-identical solutions; the same holds for
// dense versus full-pattern CSR storage of the same data.
func TestEntropyDeterministicAcrossProcs(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	p := randFixed(rng, 9, 7, 1.25)
	base := solveTight(t, p, nil)
	for _, procs := range []int{1, 2, 7, 16} {
		o := core.DefaultOptions()
		o.Epsilon = 1e-10
		o.MaxIterations = 200000
		o.Procs = procs
		sol := solveTight(t, p, o)
		for k := range base.X {
			if sol.X[k] != base.X[k] {
				t.Fatalf("procs=%d: X[%d] = %v, want bit-identical %v", procs, k, sol.X[k], base.X[k])
			}
		}
		for i := range base.Lambda {
			if sol.Lambda[i] != base.Lambda[i] {
				t.Fatalf("procs=%d: Lambda[%d] differs", procs, i)
			}
		}
		for j := range base.Mu {
			if sol.Mu[j] != base.Mu[j] {
				t.Fatalf("procs=%d: Mu[%d] differs", procs, j)
			}
		}
	}
	csr := solveTight(t, toCSR(t, p), nil)
	for k := range base.X {
		if csr.X[k] != base.X[k] {
			t.Fatalf("csr: X[%d] = %v, want bit-identical %v", k, csr.X[k], base.X[k])
		}
	}
}

// TestEntropyMatchesSinkhorn: with fixed totals, uniform weights, a positive
// prior and no binding bounds, the KL projection is exactly the
// biproportional (Sinkhorn/RAS) limit — two very different algorithms, one
// optimum.
func TestEntropyMatchesSinkhorn(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	p := randFixed(rng, 8, 6, 1.3)
	for k := range p.Gamma {
		p.Gamma[k] = 1 // Sinkhorn solves the unweighted KL projection only
	}
	o := core.DefaultOptions()
	o.Epsilon = 1e-11
	o.MaxIterations = 500000
	ent := solveTight(t, p, o)
	sk, err := SolveSinkhorn(context.Background(), p, o)
	if err != nil {
		t.Fatalf("sinkhorn: %v", err)
	}
	for k := range ent.X {
		if d := math.Abs(ent.X[k] - sk.X[k]); d > 1e-6*(1+math.Abs(sk.X[k])) {
			t.Fatalf("X[%d]: entropy %g vs sinkhorn %g", k, ent.X[k], sk.X[k])
		}
	}
}

// TestEntropyUniformPriorClosedForm: a uniform prior with uniform weights and
// fixed totals has the rank-1 closed-form KL optimum x_ij = s_i·d_j/T
// (Oikonomou's most-likely-matrix solution).
func TestEntropyUniformPriorClosedForm(t *testing.T) {
	m, n := 6, 4
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = 1
		gamma[k] = 1
	}
	s0 := []float64{3, 5, 2, 7, 4, 9}
	total := 0.0
	for _, v := range s0 {
		total += v
	}
	d0 := []float64{total * 0.4, total * 0.3, total * 0.2, total * 0.1}
	p, err := core.NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		t.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Epsilon = 1e-12
	o.MaxIterations = 500000
	sol := solveTight(t, p, o)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := s0[i] * d0[j] / total
			if got := sol.X[i*n+j]; math.Abs(got-want) > 1e-8*(1+want) {
				t.Fatalf("X[%d,%d] = %g, want rank-1 %g", i, j, got, want)
			}
		}
	}
}

// TestEntropyIntervalComplementarity: prior sums strictly inside every
// interval mean the prior itself is optimal — zero multipliers, x = x⁰; a
// shifted interval forces the corresponding bound to bind exactly.
func TestEntropyIntervalComplementarity(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	m, n := 4, 5
	f := randFixed(rng, m, n, 1.0)
	slack := func(v float64) (lo, hi float64) { return v * 0.9, v * 1.1 }
	slo := make([]float64, m)
	shi := make([]float64, m)
	dlo := make([]float64, n)
	dhi := make([]float64, n)
	for i := range slo {
		slo[i], shi[i] = slack(f.S0[i])
	}
	for j := range dlo {
		dlo[j], dhi[j] = slack(f.D0[j])
	}
	p, err := core.NewInterval(m, n, f.X0, f.Gamma, slo, shi, dlo, dhi)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveTight(t, p, nil)
	for k := range sol.X {
		if math.Abs(sol.X[k]-p.X0[k]) > 1e-9*(1+p.X0[k]) {
			t.Fatalf("interior intervals: X[%d] = %g, want the prior %g", k, sol.X[k], p.X0[k])
		}
	}
	for i := range sol.Lambda {
		if sol.Lambda[i] != 0 {
			t.Fatalf("interior intervals: Lambda[%d] = %g, want 0", i, sol.Lambda[i])
		}
	}

	// Push row 0's interval above the prior mass: its lower bound must bind.
	shifted := append([]float64(nil), slo...)
	shiftedHi := append([]float64(nil), shi...)
	shifted[0] = f.S0[0] * 1.3
	shiftedHi[0] = f.S0[0] * 1.4
	p2, err := core.NewInterval(m, n, f.X0, f.Gamma, shifted, shiftedHi, dlo, dhi)
	if err != nil {
		t.Fatal(err)
	}
	sol2 := solveTight(t, p2, nil)
	var row0 float64
	for j := 0; j < n; j++ {
		row0 += sol2.X[j]
	}
	if math.Abs(row0-shifted[0]) > 1e-6*(1+shifted[0]) {
		t.Fatalf("binding interval: row 0 sum %g, want lower bound %g", row0, shifted[0])
	}
	if sol2.Lambda[0] <= 0 {
		t.Fatalf("binding lower bound: Lambda[0] = %g, want > 0", sol2.Lambda[0])
	}
	rep := core.CheckKKTObjective(p2, sol2, core.ObjectiveEntropy)
	if !rep.Satisfied(1e-6) {
		t.Fatalf("binding interval KKT violated: %+v", rep)
	}
}

// TestEntropyRespectsBounds: box bounds clamp the exponential response and
// the clamped solution still certifies via entropy KKT.
func TestEntropyRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	p := randFixed(rng, 6, 6, 1.35)
	upper := make([]float64, len(p.X0))
	lower := make([]float64, len(p.X0))
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.N; j++ {
			k := i*p.N + j
			// Checkerboard caps: growth 1.35 binds the tight cells, and every
			// row and column keeps wide cells so the totals stay reachable.
			if (i+j)%2 == 0 {
				upper[k] = p.X0[k] * 1.25
			} else {
				upper[k] = p.X0[k] * 10
			}
			lower[k] = p.X0[k] * 0.1
		}
	}
	p.Upper, p.Lower = upper, lower
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sol := solveTight(t, p, nil)
	for k := range sol.X {
		if sol.X[k] < lower[k]-1e-12 || sol.X[k] > upper[k]+1e-12 {
			t.Fatalf("X[%d] = %g outside [%g, %g]", k, sol.X[k], lower[k], upper[k])
		}
	}
	rep := core.CheckKKTObjective(p, sol, core.ObjectiveEntropy)
	if !rep.Satisfied(1e-6) {
		t.Fatalf("bounded entropy KKT violated: %+v", rep)
	}
}

// TestEntropyDomainErrors: data outside the KL domain fails fast with
// ErrDomain; structurally unreachable totals fail with ErrInfeasible.
func TestEntropyDomainErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	t.Run("negative prior", func(t *testing.T) {
		p := randFixed(rng, 3, 3, 1.1)
		p.X0[4] = -1
		_, err := entropySystem(p)
		if !errors.Is(err, ErrDomain) {
			t.Fatalf("err = %v, want ErrDomain", err)
		}
	})
	t.Run("positive lower bound over zero prior", func(t *testing.T) {
		p := randFixed(rng, 3, 3, 1.1)
		p.X0[4] = 0
		lower := make([]float64, len(p.X0))
		lower[4] = 0.5
		p.Lower = lower
		_, err := entropySystem(p)
		if !errors.Is(err, ErrDomain) {
			t.Fatalf("err = %v, want ErrDomain", err)
		}
	})
	t.Run("zero-support row with positive total", func(t *testing.T) {
		p := randFixed(rng, 3, 3, 1.0)
		for j := 0; j < 3; j++ {
			p.X0[j] = 0 // row 0 loses all prior mass; S0[0] stays positive
		}
		_, err := entropySystem(p)
		if !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
	})
}

// TestEntropyWarmStartMu0: seeding the column duals with the converged Mu
// re-converges in far fewer sweeps and lands on the same optimum.
func TestEntropyWarmStartMu0(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 64))
	p := randFixed(rng, 10, 8, 1.3)
	o := core.DefaultOptions()
	o.Epsilon = 1e-10
	o.MaxIterations = 200000
	cold := solveTight(t, p, o)

	warm := core.DefaultOptions()
	warm.Epsilon = 1e-10
	warm.MaxIterations = 200000
	warm.Mu0 = cold.Mu
	hot := solveTight(t, p, warm)
	if hot.Iterations > cold.Iterations {
		t.Fatalf("warm start took %d sweeps, cold %d", hot.Iterations, cold.Iterations)
	}
	for k := range cold.X {
		if math.Abs(hot.X[k]-cold.X[k]) > 1e-8*(1+math.Abs(cold.X[k])) {
			t.Fatalf("warm start moved the optimum at %d: %g vs %g", k, hot.X[k], cold.X[k])
		}
	}
}

// TestEntropyCancellation: a context cancelled between sweeps surfaces as
// ctx.Err() with the partial iterate stamped StatusCancelled.
func TestEntropyCancellation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	p := randFixed(rng, 30, 30, 1.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := core.DefaultOptions()
	o.Epsilon = 1e-300
	o.MaxIterations = 1 << 30
	sol, err := SolveEntropy(ctx, p, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol == nil || sol.Status != core.StatusCancelled {
		t.Fatalf("sol = %+v, want StatusCancelled", sol)
	}
}

// TestEntropyMohrCrownPolenske: on the zero pattern [[5,0],[1,1]] with row
// totals (6, 2) and column totals (3, 5), column 1 can only draw on row 1,
// which holds 2 < 5 — the targets are unreachable, so the duals run off
// along the pattern's infeasible direction and the exponential response
// hits its exponent cap. The solve must stop at its sweep budget with
// ErrNotConverged, a finite iterate and the zero cell still zero.
func TestEntropyMohrCrownPolenske(t *testing.T) {
	p, err := core.NewFixed(2, 2, []float64{5, 0, 1, 1}, []float64{1, 1, 1, 1}, []float64{6, 2}, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Epsilon = 1e-6
	o.MaxIterations = 5000
	sol, err := SolveEntropy(context.Background(), p, o)
	if !errors.Is(err, core.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if sol == nil || sol.Status != core.StatusMaxIterations || sol.Iterations != o.MaxIterations {
		t.Fatalf("sol = %+v, want StatusMaxIterations after %d sweeps", sol, o.MaxIterations)
	}
	for name, v := range map[string][]float64{"X": sol.X, "Lambda": sol.Lambda, "Mu": sol.Mu} {
		for k, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s[%d] = %v, want finite", name, k, x)
			}
		}
	}
	if sol.X[1] != 0 {
		t.Fatalf("zero prior cell X[0,1] = %v, want 0", sol.X[1])
	}
}

// TestEntropyPointIntervals: an interval collapsed to a point below the
// prior's row sum binds from above, so its multiplier goes negative. The
// side must come from where the sum lies, not from which bound the target
// equals — here both bounds are the target.
func TestEntropyPointIntervals(t *testing.T) {
	p, err := core.NewInterval(2, 3, []float64{4, 2, 3, 5, 1, 2}, []float64{1, 1, 1, 1, 1, 1},
		[]float64{4, 5}, []float64{4, 5}, []float64{0, 0, 0}, []float64{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	sol := solveTight(t, p, nil)
	for i, want := range []float64{4, 5} {
		var row float64
		for j := 0; j < 3; j++ {
			row += sol.X[i*3+j]
		}
		if math.Abs(row-want) > 1e-8 || !(sol.Lambda[i] < 0) {
			t.Fatalf("row %d: sum %g, Lambda %g; want sum %g with Lambda < 0", i, row, sol.Lambda[i], want)
		}
	}
	if rep := core.CheckKKTObjective(p, sol, core.ObjectiveEntropy); !rep.Satisfied(1e-6) {
		t.Fatalf("entropy KKT violated: %+v", rep)
	}
}
