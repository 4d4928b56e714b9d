package baseline

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"sea/internal/core"
	"sea/internal/equilibrate"
	"sea/internal/mat"
	"sea/internal/metrics"
)

// optsWith returns default options with the given tolerance and limit.
func optsWith(eps float64, maxIter int) *core.Options {
	o := core.DefaultOptions()
	o.Epsilon = eps
	o.MaxIterations = maxIter
	return o
}

// randFixedDiag builds a random feasible fixed-totals diagonal problem.
func randFixedDiag(rng *rand.Rand, m, n int, factor float64) *core.DiagonalProblem {
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*100
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
	p, err := core.NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		panic(err)
	}
	return p
}

func seaOpts() *core.Options {
	o := core.DefaultOptions()
	o.Epsilon = 1e-10
	o.Criterion = core.DualGradient
	o.MaxIterations = 500000
	return o
}

// TestDykstraMatchesSEA cross-validates the two independent solvers.
func TestDykstraMatchesSEA(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	for trial := 0; trial < 8; trial++ {
		m := 2 + rng.IntN(6)
		n := 2 + rng.IntN(6)
		p := randFixedDiag(rng, m, n, 1+rng.Float64()*2)
		sea, err := core.SolveDiagonal(context.Background(), p, seaOpts())
		if err != nil {
			t.Fatal(err)
		}
		dyk, err := SolveDykstra(context.Background(), p, optsWith(1e-10, 500000))
		if err != nil {
			t.Fatal(err)
		}
		for k := range sea.X {
			if math.Abs(sea.X[k]-dyk.X[k]) > 1e-5*(1+math.Abs(sea.X[k])) {
				t.Fatalf("trial %d: SEA and Dykstra disagree at %d: %g vs %g",
					trial, k, sea.X[k], dyk.X[k])
			}
		}
		if math.Abs(sea.Objective-dyk.Objective) > 1e-6*(1+sea.Objective) {
			t.Errorf("trial %d: objectives %g vs %g", trial, sea.Objective, dyk.Objective)
		}
	}
}

func TestDykstraRejectsElastic(t *testing.T) {
	p := &core.DiagonalProblem{
		M: 2, N: 2,
		X0: []float64{1, 1, 1, 1}, Gamma: []float64{1, 1, 1, 1},
		S0: []float64{2, 2}, D0: []float64{2, 2},
		Alpha: []float64{1, 1}, Beta: []float64{1, 1},
		Kind: core.ElasticTotals,
	}
	if _, err := SolveDykstra(context.Background(), p, optsWith(1e-6, 100)); err == nil {
		t.Error("Dykstra accepted an elastic problem")
	}
}

// denseDominantG mirrors the paper's dense weight generator.
func denseDominantG(rng *rand.Rand, n int) *mat.DenseSym {
	data := make([]float64, n*n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (rng.Float64()*2 - 1) * 450 / float64(n)
			data[i*n+j] = v
			data[j*n+i] = v
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		d := 500 + rng.Float64()*300
		if d <= rowAbs[i] {
			d = rowAbs[i] + 1
		}
		data[i*n+i] = d
	}
	return mat.MustDenseSym(n, data)
}

func randGeneralFixed(rng *rand.Rand, m, n int) *core.GeneralProblem {
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
	return &core.GeneralProblem{
		M: m, N: n, X0: x0,
		G:  denseDominantG(rng, mn),
		S0: s0, D0: d0,
		Kind: core.FixedTotals,
	}
}

func generalOpts() *core.Options {
	o := core.DefaultOptions()
	o.Epsilon = 1e-7
	o.InnerEpsilon = 1e-9
	o.Criterion = core.DualGradient
	o.MaxIterations = 5000
	return o
}

// TestRCMatchesSEAGeneral: RC and SEA must agree on general problems.
func TestRCMatchesSEAGeneral(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 56))
	for trial := 0; trial < 4; trial++ {
		m := 3 + rng.IntN(3)
		n := 3 + rng.IntN(3)
		p := randGeneralFixed(rng, m, n)
		sea, err := core.SolveGeneral(context.Background(), p, generalOpts())
		if err != nil {
			t.Fatal(err)
		}
		var c metrics.Counters
		o := generalOpts()
		o.Trace = &c
		rc, err := SolveRC(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sea.X {
			if math.Abs(sea.X[k]-rc.X[k]) > 1e-3*(1+math.Abs(sea.X[k])) {
				t.Fatalf("trial %d: SEA and RC disagree at %d: %g vs %g", trial, k, sea.X[k], rc.X[k])
			}
		}
		rep := core.CheckKKTGeneral(p, rc)
		if !rep.Satisfied(0.5) {
			t.Errorf("trial %d: RC KKT: %+v", trial, rep)
		}
		if c.Snapshot().OuterIterations == 0 {
			t.Error("RC counters not populated")
		}
	}
}

// TestRCDeterministicAcrossProcs: RC's solution, multipliers and iteration
// counts are bit-identical at every worker count, with and without upper
// bounds — warm-start states are kept per row and column, never per chunk.
func TestRCDeterministicAcrossProcs(t *testing.T) {
	for _, bounded := range []bool{false, true} {
		rng := rand.New(rand.NewPCG(65, 66))
		p := randGeneralFixed(rng, 9, 12)
		if bounded {
			p.Upper = make([]float64, len(p.X0))
			for k, v := range p.X0 {
				p.Upper[k] = 1.5 * v * (1 + rng.Float64())
				if rng.IntN(4) == 0 {
					p.Upper[k] = math.Inf(1)
				}
			}
		}
		var ref *core.Solution
		for _, procs := range []int{1, 2, 7, 16} {
			o := generalOpts()
			o.Procs = procs
			sol, err := SolveRC(context.Background(), p, o)
			if err != nil {
				t.Fatalf("bounded=%v procs=%d: %v", bounded, procs, err)
			}
			if ref == nil {
				ref = sol
				continue
			}
			if sol.Iterations != ref.Iterations || sol.InnerIterations != ref.InnerIterations {
				t.Fatalf("bounded=%v procs=%d: iterations %d/%d, want %d/%d", bounded, procs,
					sol.Iterations, sol.InnerIterations, ref.Iterations, ref.InnerIterations)
			}
			for name, pair := range map[string][2][]float64{
				"X": {sol.X, ref.X}, "lambda": {sol.Lambda, ref.Lambda}, "mu": {sol.Mu, ref.Mu},
			} {
				for k := range pair[1] {
					if math.Float64bits(pair[0][k]) != math.Float64bits(pair[1][k]) {
						t.Fatalf("bounded=%v procs=%d: %s[%d] = %v, want %v (must be bit-identical)",
							bounded, procs, name, k, pair[0][k], pair[1][k])
					}
				}
			}
		}
	}
}

// TestRCErrorNamesFirstRow: when every row subproblem fails, the reported
// error names row 0 at every worker count — failing chunks record their
// errors in their own slots, and the lowest chunk's is taken.
func TestRCErrorNamesFirstRow(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 68))
	p := randGeneralFixed(rng, 8, 8)
	p.Upper = make([]float64, 64)
	mat.Fill(p.Upper, 1e-3)
	for _, procs := range []int{1, 2, 7} {
		o := generalOpts()
		o.Procs = procs
		_, err := SolveRC(context.Background(), p, o)
		if !errors.Is(err, equilibrate.ErrInfeasible) || !strings.Contains(err.Error(), "row 0:") {
			t.Errorf("procs=%d: err = %v, want an infeasible row 0", procs, err)
		}
	}
}

// TestBKMatchesSEADiagonalG: B-K on a diagonal-G general problem agrees with
// the diagonal SEA solution.
func TestBKMatchesSEADiagonalG(t *testing.T) {
	rng := rand.New(rand.NewPCG(57, 58))
	for trial := 0; trial < 4; trial++ {
		m := 3 + rng.IntN(3)
		n := 3 + rng.IntN(3)
		dp := randFixedDiag(rng, m, n, 1.7)
		gp := &core.GeneralProblem{
			M: m, N: n, X0: dp.X0,
			G:  mat.MustDiagonal(mat.Clone(dp.Gamma)),
			S0: dp.S0, D0: dp.D0,
			Kind: core.FixedTotals,
		}
		sea, err := core.SolveDiagonal(context.Background(), dp, seaOpts())
		if err != nil {
			t.Fatal(err)
		}
		o := core.DefaultOptions()
		o.Epsilon = 1e-9
		o.MaxIterations = 100000
		bk, err := SolveBK(context.Background(), gp, o)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bk.Objective-sea.Objective) > 1e-4*(1+sea.Objective) {
			t.Errorf("trial %d: B-K objective %g vs SEA %g", trial, bk.Objective, sea.Objective)
		}
		for k := range sea.X {
			if math.Abs(sea.X[k]-bk.X[k]) > 1e-2*(1+math.Abs(sea.X[k])) {
				t.Fatalf("trial %d: B-K and SEA disagree at %d: %g vs %g", trial, k, bk.X[k], sea.X[k])
			}
		}
	}
}

// TestBKMatchesSEADenseG: B-K on a dense-G problem reaches SEA's objective.
func TestBKMatchesSEADenseG(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 60))
	p := randGeneralFixed(rng, 4, 4)
	sea, err := core.SolveGeneral(context.Background(), p, generalOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Epsilon = 1e-8
	o.MaxIterations = 100000
	bk, err := SolveBK(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bk.Objective-sea.Objective) > 1e-3*(1+math.Abs(sea.Objective)) {
		t.Errorf("B-K objective %g vs SEA %g", bk.Objective, sea.Objective)
	}
}

// TestBKFeasibleThroughout: B-K is a primal method — every sweep maintains
// the transportation constraints exactly.
func TestBKFeasibleThroughout(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	p := randGeneralFixed(rng, 4, 5)
	o := core.DefaultOptions()
	o.Epsilon = 1e-8
	o.MaxIterations = 50000
	bk, err := SolveBK(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.M; i++ {
		if r := math.Abs(mat.Sum(bk.X[i*p.N:(i+1)*p.N]) - p.S0[i]); r > 1e-6*(1+p.S0[i]) {
			t.Errorf("row %d total violated by %g", i, r)
		}
	}
	if !mat.AllNonNegative(bk.X) {
		t.Error("B-K produced negative entries")
	}
}

func TestBaselinesRejectElastic(t *testing.T) {
	p := &core.GeneralProblem{Kind: core.ElasticTotals}
	if _, err := SolveRC(context.Background(), p, nil); err == nil {
		t.Error("RC accepted elastic problem")
	}
	if _, err := SolveBK(context.Background(), p, nil); err == nil {
		t.Error("B-K accepted elastic problem")
	}
}

// TestProjGradMatchesSEA: projected gradient — gradient steps plus
// Euclidean Dykstra projections, no equilibration duals — agrees with SEA on
// general problems: a third independent cross-check.
func TestProjGradMatchesSEA(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 64))
	for trial := 0; trial < 3; trial++ {
		m := 3 + rng.IntN(2)
		n := 3 + rng.IntN(2)
		p := randGeneralFixed(rng, m, n)
		sea, err := core.SolveGeneral(context.Background(), p, generalOpts())
		if err != nil {
			t.Fatal(err)
		}
		pg, err := SolveProjGrad(context.Background(), p, optsWith(1e-6, 50000))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pg.Objective-sea.Objective) > 1e-3*(1+math.Abs(sea.Objective)) {
			t.Errorf("trial %d: projected gradient objective %g vs SEA %g",
				trial, pg.Objective, sea.Objective)
		}
		for k := range sea.X {
			if math.Abs(sea.X[k]-pg.X[k]) > 1e-2*(1+math.Abs(sea.X[k])) {
				t.Fatalf("trial %d: disagree at %d: %g vs %g", trial, k, pg.X[k], sea.X[k])
			}
		}
	}
}

func TestProjGradRejectsElastic(t *testing.T) {
	p := &core.GeneralProblem{Kind: core.ElasticTotals}
	if _, err := SolveProjGrad(context.Background(), p, optsWith(1e-6, 100)); err == nil {
		t.Error("elastic problem accepted")
	}
}
