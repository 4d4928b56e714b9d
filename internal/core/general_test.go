package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"sea/internal/mat"
	"sea/internal/metrics"
)

// denseDominant builds a random symmetric strictly diagonally dominant
// matrix following the paper's Section 5 generator: diagonal in
// [diagLo, diagHi], off-diagonal entries of either sign.
func denseDominant(rng *rand.Rand, n int, diagLo, diagHi float64) *mat.DenseSym {
	data := make([]float64, n*n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Keep each row's off-diagonal mass below the minimum diagonal.
			v := (rng.Float64()*2 - 1) * diagLo * 0.9 / float64(n)
			data[i*n+j] = v
			data[j*n+i] = v
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		d := diagLo + rng.Float64()*(diagHi-diagLo)
		if d <= rowAbs[i] {
			d = rowAbs[i]*1.1 + 1
		}
		data[i*n+i] = d
	}
	return mat.MustDenseSym(n, data)
}

// randGeneralFixed builds a random general fixed-totals problem with a dense
// dominant G, as in Table 7.
func randGeneralFixed(rng *rand.Rand, m, n int) *GeneralProblem {
	mn := m * n
	x0 := make([]float64, mn)
	for k := range x0 {
		x0[k] = rng.Float64() * 100
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s0[i] += 1.5 * x0[i*n+j]
			d0[j] += 1.5 * x0[i*n+j]
		}
	}
	return &GeneralProblem{
		M: m, N: n, X0: x0,
		G:  denseDominant(rng, mn, 500, 800),
		S0: s0, D0: d0,
		Kind: FixedTotals,
	}
}

func generalOpts() *Options {
	o := DefaultOptions()
	o.Epsilon = 1e-8
	o.InnerEpsilon = 1e-10
	o.Criterion = DualGradient
	o.MaxIterations = 5000
	return o
}

func TestGeneralDiagonalGEqualsDiagonalSolve(t *testing.T) {
	// A general problem whose G is diagonal must reproduce the diagonal
	// solver's answer.
	rng := rand.New(rand.NewPCG(31, 32))
	m, n := 4, 5
	dp := randFixed(rng, m, n, 100, 2)
	gdata := make([]float64, m*n)
	copy(gdata, dp.Gamma)
	gp := &GeneralProblem{
		M: m, N: n,
		X0: dp.X0,
		G:  mat.MustDiagonal(gdata),
		S0: dp.S0, D0: dp.D0,
		Kind: FixedTotals,
	}
	want, err := SolveDiagonal(context.Background(), dp, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveGeneral(context.Background(), gp, generalOpts())
	if err != nil {
		t.Fatal(err)
	}
	for k := range got.X {
		if math.Abs(got.X[k]-want.X[k]) > 1e-5*(1+math.Abs(want.X[k])) {
			t.Fatalf("X[%d]: general %g vs diagonal %g", k, got.X[k], want.X[k])
		}
	}
	if got.Iterations > 3 {
		t.Errorf("diagonal-G general solve took %d outer iterations, want ≤ 3", got.Iterations)
	}
}

func TestGeneralFixedKKT(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	for trial := 0; trial < 5; trial++ {
		m := 3 + rng.IntN(4)
		n := 3 + rng.IntN(4)
		p := randGeneralFixed(rng, m, n)
		var c metrics.Counters
		o := generalOpts()
		o.Trace = &c
		sol, err := SolveGeneral(context.Background(), p, o)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep := CheckKKTGeneral(p, sol)
		// Stationarity tolerance scales with G (diag ~800) and x (~100).
		if !rep.Satisfied(1e-2) {
			t.Errorf("trial %d (%d×%d): general KKT violated: %+v", trial, m, n, rep)
		}
		if c.Snapshot().OuterIterations != int64(sol.Iterations) {
			t.Errorf("outer iterations counter mismatch")
		}
		if sol.InnerIterations < sol.Iterations {
			t.Errorf("inner iterations %d < outer %d", sol.InnerIterations, sol.Iterations)
		}
	}
}

func TestGeneralElasticKKT(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	m, n := 4, 4
	mn := m * n
	x0 := make([]float64, mn)
	for k := range x0 {
		x0[k] = rng.Float64() * 50
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := range s0 {
		s0[i] = rng.Float64() * 300
	}
	for j := range d0 {
		d0[j] = rng.Float64() * 300
	}
	p := &GeneralProblem{
		M: m, N: n, X0: x0,
		G:  denseDominant(rng, mn, 10, 20),
		A:  denseDominant(rng, m, 5, 8),
		B:  denseDominant(rng, n, 5, 8),
		S0: s0, D0: d0,
		Kind: ElasticTotals,
	}
	sol, err := SolveGeneral(context.Background(), p, generalOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckKKTGeneral(p, sol)
	if !rep.Satisfied(1e-3) {
		t.Errorf("elastic general KKT violated: %+v", rep)
	}
}

func TestGeneralBalancedKKT(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	n := 5
	nn := n * n
	x0 := make([]float64, nn)
	for k := range x0 {
		x0[k] = rng.Float64() * 40
	}
	s0 := make([]float64, n)
	for i := range s0 {
		s0[i] = rng.Float64() * 40 * float64(n)
	}
	p := &GeneralProblem{
		M: n, N: n, X0: x0,
		G:    denseDominant(rng, nn, 10, 20),
		A:    denseDominant(rng, n, 5, 8),
		S0:   s0,
		Kind: Balanced,
	}
	sol, err := SolveGeneral(context.Background(), p, generalOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckKKTGeneral(p, sol)
	if !rep.Satisfied(1e-3) {
		t.Errorf("balanced general KKT violated: %+v", rep)
	}
	// Balance property.
	for i := 0; i < n; i++ {
		var rs, cs float64
		for j := 0; j < n; j++ {
			rs += sol.X[i*n+j]
			cs += sol.X[j*n+i]
		}
		if math.Abs(rs-cs) > 1e-4*(1+math.Abs(rs)) {
			t.Errorf("account %d unbalanced: %g vs %g", i, rs, cs)
		}
	}
}

func TestGeneralImplicitMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 40))
	m, n := 3, 4
	mn := m * n
	x0 := make([]float64, mn)
	for k := range x0 {
		x0[k] = rng.Float64() * 100
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s0[i] += 2 * x0[i*n+j]
			d0[j] += 2 * x0[i*n+j]
		}
	}
	imp := mat.MustImplicitSym(mn, 77, 500, 800, 0.9)
	pi := &GeneralProblem{M: m, N: n, X0: x0, G: imp, S0: s0, D0: d0, Kind: FixedTotals}
	pd := &GeneralProblem{M: m, N: n, X0: x0, G: imp.Materialize(), S0: s0, D0: d0, Kind: FixedTotals}
	si, err := SolveGeneral(context.Background(), pi, generalOpts())
	if err != nil {
		t.Fatal(err)
	}
	sd, err := SolveGeneral(context.Background(), pd, generalOpts())
	if err != nil {
		t.Fatal(err)
	}
	for k := range si.X {
		if math.Abs(si.X[k]-sd.X[k]) > 1e-6*(1+math.Abs(sd.X[k])) {
			t.Fatalf("implicit vs dense differ at %d: %g vs %g", k, si.X[k], sd.X[k])
		}
	}
}

func TestGeneralRejectsNonDominant(t *testing.T) {
	m, n := 2, 2
	data := []float64{
		1, 5, 0, 0,
		5, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
	p := &GeneralProblem{
		M: m, N: n,
		X0: make([]float64, 4),
		G:  mat.MustDenseSym(4, data),
		S0: []float64{1, 1}, D0: []float64{1, 1},
		Kind: FixedTotals,
	}
	if _, err := SolveGeneral(context.Background(), p, generalOpts()); err == nil {
		t.Error("non-dominant G accepted")
	}
	o := generalOpts()
	o.SkipDominanceCheck = true
	o.MaxIterations = 50
	// With the check skipped it may iterate (and possibly fail to
	// converge); it must not be rejected up front.
	if _, err := SolveGeneral(context.Background(), p, o); err != nil && !errorsIsNotConverged(err) {
		t.Errorf("skip-dominance solve failed validation: %v", err)
	}
}

func errorsIsNotConverged(err error) bool {
	for e := err; e != nil; {
		if e == ErrNotConverged {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestFeasibleStart(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	p := randGeneralFixed(rng, 4, 6)
	x, s, d := p.FeasibleStart()
	for i := 0; i < p.M; i++ {
		if math.Abs(mat.Sum(x[i*p.N:(i+1)*p.N])-s[i]) > 1e-9*(1+s[i]) {
			t.Errorf("start row %d infeasible", i)
		}
	}
	cs := make([]float64, p.N)
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.N; j++ {
			cs[j] += x[i*p.N+j]
		}
	}
	for j := 0; j < p.N; j++ {
		if math.Abs(cs[j]-d[j]) > 1e-9*(1+d[j]) {
			t.Errorf("start column %d infeasible", j)
		}
	}
	if !mat.AllNonNegative(x) {
		t.Error("start has negative entries")
	}
}

func TestGeneralValidation(t *testing.T) {
	p := &GeneralProblem{M: 0}
	if err := p.Validate(true); err == nil {
		t.Error("zero dims accepted")
	}
	p2 := &GeneralProblem{M: 2, N: 2, X0: make([]float64, 4), G: mat.UniformDiagonal(3, 1), S0: []float64{1, 1}, D0: []float64{1, 1}}
	if err := p2.Validate(true); err == nil {
		t.Error("wrong G order accepted")
	}
	p3 := &GeneralProblem{M: 2, N: 2, X0: make([]float64, 4), G: mat.UniformDiagonal(4, 1), S0: []float64{1, 1}, D0: []float64{5, 5}}
	if err := p3.Validate(true); err == nil {
		t.Error("imbalanced fixed totals accepted")
	}
}

func TestGeneralObjective(t *testing.T) {
	// Diagonal G: general objective must equal the diagonal objective.
	rng := rand.New(rand.NewPCG(43, 44))
	dp := randFixed(rng, 3, 3, 10, 2)
	gp := &GeneralProblem{
		M: 3, N: 3, X0: dp.X0,
		G:  mat.MustDiagonal(mat.Clone(dp.Gamma)),
		S0: dp.S0, D0: dp.D0,
		Kind: FixedTotals,
	}
	x := make([]float64, 9)
	for k := range x {
		x[k] = rng.Float64() * 20
	}
	want := dp.Objective(x, nil, nil)
	got := gp.Objective(x, dp.S0, dp.D0)
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("Objective = %g, want %g", got, want)
	}
}

// TestGeneralAsymmetricGAsVI: SolveGeneral never uses the symmetry of G, so
// with a non-symmetric G it computes the solution of the variational
// inequality with operator F(x) = 2G(x−x⁰) over the transportation polytope
// — the asymmetric setting the paper's Section 2 relates to VI theory
// (where no equivalent optimization formulation exists). CheckKKTGeneral's
// conditions are exactly the VI conditions for that operator.
func TestGeneralAsymmetricGAsVI(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	m, n := 4, 4
	mn := m * n
	data := make([]float64, mn*mn)
	for i := 0; i < mn; i++ {
		data[i*mn+i] = 500 + rng.Float64()*300
		for j := 0; j < mn; j++ {
			if j != i {
				data[i*mn+j] = (rng.Float64()*2 - 1) * 400 / float64(mn)
			}
		}
	}
	g := mat.MustDenseGeneral(mn, data)
	if mat.DominanceMargin(g) <= 0 {
		t.Fatal("generator failed dominance")
	}
	x0 := make([]float64, mn)
	for k := range x0 {
		x0[k] = rng.Float64() * 50
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s0[i] += 1.4 * x0[i*n+j]
			d0[j] += 1.4 * x0[i*n+j]
		}
	}
	p := &GeneralProblem{M: m, N: n, X0: x0, G: g, S0: s0, D0: d0, Kind: FixedTotals}
	o := generalOpts()
	sol, err := SolveGeneral(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep := CheckKKTGeneral(p, sol); !rep.Satisfied(1e-2) {
		t.Errorf("asymmetric-G VI conditions violated: %+v", rep)
	}
	// Asymmetry must matter: the symmetrized problem has a different
	// solution.
	sym := make([]float64, mn*mn)
	for i := 0; i < mn; i++ {
		for j := 0; j < mn; j++ {
			sym[i*mn+j] = (data[i*mn+j] + data[j*mn+i]) / 2
		}
	}
	ps := &GeneralProblem{M: m, N: n, X0: x0, G: mat.MustDenseSym(mn, sym), S0: s0, D0: d0, Kind: FixedTotals}
	sols, err := SolveGeneral(context.Background(), ps, o)
	if err != nil {
		t.Fatal(err)
	}
	if mat.MaxAbsDiff(sol.X, sols.X) < 1e-9 {
		t.Log("note: symmetrized and asymmetric solutions coincide on this instance")
	}
}

// TestGeneralSparseGMatchesDense: a banded sparse G must produce the same
// solution as its materialized dense form.
func TestGeneralSparseGMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 48))
	m, n := 5, 6
	mn := m * n
	sg := mat.BandedDominant(mn, 4, 99, 500, 800)
	x0 := make([]float64, mn)
	for k := range x0 {
		x0[k] = rng.Float64() * 80
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s0[i] += 1.3 * x0[i*n+j]
			d0[j] += 1.3 * x0[i*n+j]
		}
	}
	ps := &GeneralProblem{M: m, N: n, X0: x0, G: sg, S0: s0, D0: d0, Kind: FixedTotals}
	pd := &GeneralProblem{M: m, N: n, X0: x0, G: sg.Materialize(), S0: s0, D0: d0, Kind: FixedTotals}
	o := generalOpts()
	ss, err := SolveGeneral(context.Background(), ps, o)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := SolveGeneral(context.Background(), pd, o)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ss.X {
		if math.Abs(ss.X[k]-sd.X[k]) > 1e-9*(1+math.Abs(sd.X[k])) {
			t.Fatalf("sparse vs dense differ at %d: %g vs %g", k, ss.X[k], sd.X[k])
		}
	}
	if rep := CheckKKTGeneral(ps, ss); !rep.Satisfied(1e-2) {
		t.Errorf("sparse-G KKT: %+v", rep)
	}
}
