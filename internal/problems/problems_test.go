package problems

import (
	"context"
	"math"
	"testing"

	"sea/internal/core"
	"sea/internal/datasets"
	"sea/internal/mat"
)

func TestTable1Construction(t *testing.T) {
	p := Table1(40, 7)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Kind != core.FixedTotals {
		t.Error("Table 1 problems have fixed totals")
	}
	for k, v := range p.X0 {
		if v < 0.1 || v > 10000 {
			t.Fatalf("X0[%d] = %g outside [.1, 10000]", k, v)
		}
		if math.Abs(p.Gamma[k]*v-1) > 1e-12 {
			t.Fatalf("Gamma[%d] != 1/x0", k)
		}
	}
	// Totals are doubled prior sums.
	rs := make([]float64, 40)
	p.RowSums(p.X0, rs)
	for i := range rs {
		if math.Abs(p.S0[i]-2*rs[i]) > 1e-9*p.S0[i] {
			t.Fatalf("S0[%d] != 2·rowsum", i)
		}
	}
	// Determinism.
	q := Table1(40, 7)
	if q.X0[17] != p.X0[17] {
		t.Error("Table1 not deterministic")
	}
}

func TestStandardIOSpecs(t *testing.T) {
	specs := StandardIOSpecs()
	if len(specs) != 9 {
		t.Fatalf("got %d specs, want 9", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
	}
	for _, want := range []string{"IOC72a", "IOC77b", "IO72c"} {
		if !names[want] {
			t.Errorf("missing spec %s", want)
		}
	}
}

func TestIOTableDensityAndSolvability(t *testing.T) {
	spec := IOSpec{Name: "test", Sectors: 60, Density: 0.5, Variant: IOGrowth10, Seed: 3}
	p := IOTable(spec)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var nz int
	for _, v := range p.X0 {
		if v > 0 {
			nz++
		}
	}
	density := float64(nz) / float64(len(p.X0))
	if density < 0.42 || density > 0.58 {
		t.Errorf("density %.2f, want ≈ 0.5", density)
	}
	// Growth: totals are 1.10× prior sums.
	rs := make([]float64, 60)
	p.RowSums(p.X0, rs)
	for i := range rs {
		if math.Abs(p.S0[i]-1.10*rs[i]) > 1e-9*(1+p.S0[i]) {
			t.Fatalf("S0[%d] not grown by 10%%", i)
		}
	}
	// It solves.
	o := core.DefaultOptions()
	o.Criterion = core.DualGradient
	o.Epsilon = 1e-6
	sol, err := core.SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep := core.CheckKKT(p, sol); !rep.Satisfied(1e-4) {
		t.Errorf("KKT: %+v", rep)
	}
}

func TestIOPerturbedKeepsTotalsConsistent(t *testing.T) {
	spec := IOSpec{Name: "test", Sectors: 30, Density: 0.3, Variant: IOPerturbed, Seed: 5}
	p := IOTable(spec)
	if math.Abs(mat.Sum(p.S0)-mat.Sum(p.D0)) > 1e-6 {
		t.Error("perturbed variant has inconsistent totals")
	}
	// The perturbed prior no longer satisfies the totals.
	rs := make([]float64, 30)
	p.RowSums(p.X0, rs)
	if mat.MaxAbsDiff(rs, p.S0) < 1 {
		t.Error("perturbation did not move the prior off the totals")
	}
}

func TestSAMFromDataset(t *testing.T) {
	for _, s := range datasets.All() {
		p := SAMFromDataset(s)
		if p.Kind != core.Balanced {
			t.Fatalf("%s: kind %v", s.Name, p.Kind)
		}
		o := core.DefaultOptions()
		o.Criterion = core.RelBalance
		o.Epsilon = 1e-6
		sol, err := core.SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		// Balance achieved.
		n := s.N()
		for i := 0; i < n; i++ {
			var rs, cs float64
			for j := 0; j < n; j++ {
				rs += sol.X[i*n+j]
				cs += sol.X[j*n+i]
			}
			if math.Abs(rs-cs) > 1e-3*(1+rs) {
				t.Errorf("%s: account %d unbalanced after estimation: %g vs %g", s.Name, i, rs, cs)
			}
		}
		// Structural zeros stay near zero under the heavy floor weight.
		for k, v := range s.X0 {
			if v == 0 && sol.X[k] > 0.5 {
				t.Errorf("%s: structural zero %d grew to %g", s.Name, k, sol.X[k])
			}
		}
	}
}

func TestRandomSAM(t *testing.T) {
	p := RandomSAM(50, 9)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range p.X0 {
		if v <= 0 {
			t.Fatal("RandomSAM should be fully dense")
		}
	}
	o := core.DefaultOptions()
	o.Criterion = core.RelBalance
	o.Epsilon = 1e-3 // the paper's Table 3 tolerance
	sol, err := core.SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Error("RandomSAM(50) did not converge")
	}
}

func TestMigrationTable(t *testing.T) {
	x := MigrationTable("6570", 11)
	if len(x) != 48*48 {
		t.Fatalf("table has %d entries", len(x))
	}
	for i := 0; i < 48; i++ {
		if x[i*48+i] != 0 {
			t.Errorf("diagonal (non-mover) entry %d nonzero", i)
		}
	}
	// Big states exchange more: California (index 3) vs Wyoming (47) into
	// New York (29).
	if x[3*48+29] <= x[47*48+29] {
		t.Errorf("CA→NY (%g) should exceed WY→NY (%g)", x[3*48+29], x[47*48+29])
	}
	// Distance decay: New York (29) sends more to Connecticut (5) than to
	// Nevada (25) after adjusting for... just check it is positive.
	if x[29*48+5] <= 0 {
		t.Error("NY→CT flow should be positive")
	}
}

func TestMigrationProblemSolves(t *testing.T) {
	specs := StandardMigrationSpecs()
	if len(specs) != 9 {
		t.Fatalf("%d specs, want 9", len(specs))
	}
	// Solve one of each variant.
	for _, spec := range specs[:3] {
		p := MigrationProblem(spec)
		if p.Kind != core.ElasticTotals {
			t.Fatalf("%s: kind %v", spec.Name, p.Kind)
		}
		// All weights one, per the paper.
		if p.Gamma[17] != 1 || p.Alpha[3] != 1 || p.Beta[40] != 1 {
			t.Fatalf("%s: weights not unit", spec.Name)
		}
		o := core.DefaultOptions()
		o.Criterion = core.DualGradient
		o.Epsilon = 1e-4
		o.MaxIterations = 200000
		sol, err := core.SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if rep := core.CheckKKT(p, sol); !rep.Satisfied(1e-3) {
			t.Errorf("%s: KKT %+v", spec.Name, rep)
		}
	}
}

func TestMigrationVariantDifficulty(t *testing.T) {
	// The paper: larger growth factors are harder; perturbed-entries
	// examples are the fastest. Compare iteration counts.
	iters := map[MigVariant]int{}
	for _, v := range []MigVariant{MigGrowthSmall, MigGrowthLarge, MigPerturbed} {
		spec := MigrationSpec{Name: "t", Period: "6570", Variant: v, Seed: 99}
		p := MigrationProblem(spec)
		o := core.DefaultOptions()
		o.Criterion = core.DualGradient
		o.Epsilon = 1e-4
		o.MaxIterations = 500000
		sol, err := core.SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatalf("%c: %v", v, err)
		}
		iters[v] = sol.Iterations
	}
	if iters[MigGrowthLarge] < iters[MigGrowthSmall] {
		t.Errorf("large growth (%d iters) should be at least as hard as small (%d)",
			iters[MigGrowthLarge], iters[MigGrowthSmall])
	}
	if iters[MigPerturbed] > iters[MigGrowthSmall] {
		t.Errorf("perturbed variant (%d iters) should be the easiest (small growth: %d)",
			iters[MigPerturbed], iters[MigGrowthSmall])
	}
}

func TestTemporalSequence(t *testing.T) {
	spec := TemporalSpec{Name: "t", M: 12, N: 10, Periods: 5, Drift: 0.02, Seed: 17}
	periods := Temporal(spec)
	if len(periods) != spec.Periods {
		t.Fatalf("got %d periods, want %d", len(periods), spec.Periods)
	}
	for p, prob := range periods {
		if prob.M != spec.M || prob.N != spec.N {
			t.Fatalf("period %d is %dx%d, want %dx%d", p, prob.M, prob.N, spec.M, spec.N)
		}
		if err := prob.Validate(); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if math.Abs(mat.Sum(prob.S0)-mat.Sum(prob.D0)) > 1e-6*mat.Sum(prob.S0) {
			t.Fatalf("period %d: totals inconsistent", p)
		}
	}
	// Consecutive periods drift but stay close: the prior moves by roughly
	// Drift per period, which is what makes dual warm starts pay off.
	for p := 1; p < len(periods); p++ {
		prev, cur := periods[p-1], periods[p]
		var maxRel float64
		for k := range cur.X0 {
			rel := math.Abs(cur.X0[k]-prev.X0[k]) / prev.X0[k]
			if rel > maxRel {
				maxRel = rel
			}
		}
		if maxRel == 0 {
			t.Fatalf("period %d identical to period %d; no drift", p, p-1)
		}
		if maxRel > 10*spec.Drift {
			t.Fatalf("period %d drifted %.1f%% from its predecessor; not a slow series", p, 100*maxRel)
		}
	}
	// Determinism.
	again := Temporal(spec)
	for k := range again[2].X0 {
		if again[2].X0[k] != periods[2].X0[k] {
			t.Fatal("Temporal not deterministic")
		}
	}
	// Standard specs are valid and distinct.
	specs := StandardTemporalSpecs()
	if len(specs) < 2 {
		t.Fatalf("got %d standard temporal specs", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate temporal spec %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestDenseDominant(t *testing.T) {
	g := DenseDominant(60, 13, 500, 800)
	if m := mat.DominanceMargin(g); m <= 0 {
		t.Errorf("dominance margin %g", m)
	}
	for i := 0; i < 60; i++ {
		if d := g.Diag(i); d < 500 || d > 800 {
			t.Errorf("diag %d = %g outside [500,800]", i, d)
		}
	}
	// Off-diagonals of both signs.
	var neg, pos int
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			switch {
			case g.At(i, j) < 0:
				neg++
			case g.At(i, j) > 0:
				pos++
			}
		}
	}
	if neg == 0 || pos == 0 {
		t.Errorf("off-diagonals all one sign (neg=%d pos=%d)", neg, pos)
	}
}

func TestGeneralDenseSolves(t *testing.T) {
	p := GeneralDense(6, 6, 15, false)
	o := core.DefaultOptions()
	o.Epsilon = 1e-6
	o.InnerEpsilon = 1e-8
	o.Criterion = core.DualGradient
	sol, err := core.SolveGeneral(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep := core.CheckKKTGeneral(p, sol); !rep.Satisfied(1e-2) {
		t.Errorf("KKT: %+v", rep)
	}
}

func TestGeneralDenseImplicit(t *testing.T) {
	p := GeneralDense(5, 5, 16, true)
	if _, ok := p.G.(*mat.ImplicitSym); !ok {
		t.Fatal("implicit flag ignored")
	}
	if m := mat.DominanceMargin(p.G); m <= 0 {
		t.Errorf("implicit G not dominant: %g", m)
	}
}

func TestTable7Sizes(t *testing.T) {
	sizes := Table7Sizes()
	wantG := []int{100, 400, 900, 2500, 4900, 10000, 14400}
	if len(sizes) != len(wantG) {
		t.Fatalf("got %d sizes", len(sizes))
	}
	for i, s := range sizes {
		if s*s != wantG[i] {
			t.Errorf("size %d gives G %d, want %d", s, s*s, wantG[i])
		}
	}
}

func TestGeneralMigration(t *testing.T) {
	p := GeneralMigration("5560", 'a', 21)
	if p.G.Dim() != 2304 {
		t.Fatalf("G order %d, want 2304", p.G.Dim())
	}
	if math.Abs(mat.Sum(p.S0)-mat.Sum(p.D0)) > 1e-6*mat.Sum(p.S0) {
		t.Error("totals inconsistent")
	}
	if err := p.Validate(true); err != nil {
		t.Fatal(err)
	}
	b := GeneralMigration("5560", 'b', 21)
	if mat.MaxAbsDiff(b.X0, p.X0) == 0 {
		t.Error("variant b should perturb entries")
	}
}

// TestUSDA82EShape: Table 3's USDA82E instance, RandomSAM(133, 1982), is the
// 133-account fully dense SAM.
func TestUSDA82EShape(t *testing.T) {
	p := RandomSAM(133, 1982)
	if p.M != 133 || p.N != 133 {
		t.Fatalf("USDA82E is %d×%d, want 133×133", p.M, p.N)
	}
	nz := 0
	for _, v := range p.X0 {
		if v != 0 {
			nz++
		}
	}
	if nz != 133*133 {
		t.Errorf("USDA82E should be fully dense (Table 3: 17689 transactions), got %d", nz)
	}
}

// TestWeightSchemes: the weighting conventions of the paper's Section 2 —
// the chi-square γ = 1/x⁰ the generators use (reciprocalWeights, floored on
// structural zeros), Friedlander's unit γ = 1, and γ = 1/√x⁰ — all give
// solvable problems, and the weights move the optimum.
func TestWeightSchemes(t *testing.T) {
	chi := reciprocalWeights([]float64{4, 0, 100})
	if chi[0] != 0.25 || chi[1] != 1/gammaFloor || chi[2] != 0.01 {
		t.Errorf("chi-square weights %v, want [0.25 %g 0.01]", chi, 1/gammaFloor)
	}
	base := baseIOTable(20, 0.6, 31)
	s0 := make([]float64, 20)
	d0 := make([]float64, 20)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			s0[i] += 1.2 * base[i*20+j]
			d0[j] += 1.2 * base[i*20+j]
		}
	}
	unit := make([]float64, len(base))
	isq := make([]float64, len(base))
	for k, v := range base {
		unit[k] = 1
		isq[k] = 1 / math.Sqrt(math.Max(v, gammaFloor))
	}
	var objs []float64
	for s, gamma := range [][]float64{reciprocalWeights(base), unit, isq} {
		p, err := core.NewFixed(20, 20, base, gamma, s0, d0)
		if err != nil {
			t.Fatal(err)
		}
		o := core.DefaultOptions()
		o.Criterion = core.DualGradient
		o.Epsilon = 1e-8
		sol, err := core.SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep := core.CheckKKT(p, sol); !rep.Satisfied(1e-5) {
			t.Errorf("scheme %d: KKT %+v", s, rep)
		}
		objs = append(objs, sol.Objective)
	}
	if objs[0] == objs[1] {
		t.Error("chi-square and unit schemes coincided; weights ignored?")
	}
}
