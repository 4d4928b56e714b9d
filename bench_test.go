// Benchmarks, one family per table of the paper's evaluation, plus
// ablations for the design choices DESIGN.md calls out. Sizes here are
// scaled down so `go test -bench=.` completes quickly; cmd/seabench runs
// the paper-scale experiments and prints the tables themselves.
package sea

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"sea/internal/baseline"
	"sea/internal/core"
	"sea/internal/equilibrate"
	"sea/internal/experiments"
	"sea/internal/parallel"
	"sea/internal/parsim"
	"sea/internal/problems"
	"sea/internal/spe"
)

// solveDiag runs one SEA solve per iteration, failing the benchmark on any
// solver error.
func solveDiag(b *testing.B, p *core.DiagonalProblem, o *core.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveDiagonal(context.Background(), p, o); err != nil {
			b.Fatal(err)
		}
	}
}

func fixedOpts(eps float64) *core.Options {
	o := core.DefaultOptions()
	o.Criterion = core.MaxAbsDelta
	o.Epsilon = eps
	return o
}

// --- Table 1: large diagonal fixed problems -----------------------------

func BenchmarkTable1_Diagonal100(b *testing.B) {
	solveDiag(b, problems.Table1(100, 1), fixedOpts(0.01))
}

func BenchmarkTable1_Diagonal250(b *testing.B) {
	solveDiag(b, problems.Table1(250, 1), fixedOpts(0.01))
}

func BenchmarkTable1_Diagonal500(b *testing.B) {
	solveDiag(b, problems.Table1(500, 1), fixedOpts(0.01))
}

// The same instance with the phases spread over NumCPU pool workers (on a
// single-core host this measures pure scheduling overhead; docs/PERFORMANCE.md
// records the multi-core numbers).
func BenchmarkTable1_Diagonal500_Parallel(b *testing.B) {
	o := fixedOpts(0.01)
	o.Procs = runtime.NumCPU()
	solveDiag(b, problems.Table1(500, 1), o)
}

// --- Table 2: input/output tables ----------------------------------------

func BenchmarkTable2_IOGrowth(b *testing.B) {
	spec := problems.IOSpec{Name: "bench", Sectors: 100, Density: 0.52, Variant: problems.IOGrowth10, Seed: 2}
	solveDiag(b, problems.IOTable(spec), fixedOpts(0.01))
}

func BenchmarkTable2_IOSparse(b *testing.B) {
	spec := problems.IOSpec{Name: "bench", Sectors: 150, Density: 0.16, Variant: problems.IOGrowth100, Seed: 3}
	solveDiag(b, problems.IOTable(spec), fixedOpts(0.01))
}

// --- Table 3: social accounting matrices ---------------------------------

func BenchmarkTable3_SAMBalanced150(b *testing.B) {
	o := core.DefaultOptions()
	o.Criterion = core.RelBalance
	o.Epsilon = 0.001
	solveDiag(b, problems.RandomSAM(150, 4), o)
}

// --- Table 4: migration tables -------------------------------------------

func BenchmarkTable4_MigrationElastic(b *testing.B) {
	spec := problems.MigrationSpec{Name: "bench", Period: "6570", Variant: problems.MigGrowthSmall, Seed: 5}
	p := problems.MigrationProblem(spec)
	o := core.DefaultOptions()
	o.Criterion = core.DualGradient
	o.Epsilon = 0.01
	o.MaxIterations = 500000
	solveDiag(b, p, o)
}

// --- Table 5: spatial price equilibrium ----------------------------------

func BenchmarkTable5_SPE100(b *testing.B) {
	sp := spe.Generate(100, 100, 6)
	p, err := sp.ToConstrainedMatrix()
	if err != nil {
		b.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Criterion = core.DualGradient
	o.Epsilon = 0.01
	o.CheckEvery = 2
	o.MaxIterations = 500000
	solveDiag(b, p, o)
}

// --- Table 6 / Figure 5: instrumented solve + multiprocessor simulation --

func BenchmarkTable6_SpeedupPipeline(b *testing.B) {
	p := problems.Table1(120, 7)
	for i := 0; i < b.N; i++ {
		o := fixedOpts(0.01)
		tr := &parsim.Recorder{}
		o.Trace = tr
		if _, err := core.SolveDiagonal(context.Background(), p, o); err != nil {
			b.Fatal(err)
		}
		parsim.Speedups(tr.Phases, []int{2, 4, 6})
	}
}

// --- Table 7: SEA vs RC vs B-K on general dense-G problems ---------------

func benchGeneral(b *testing.B, solve func(context.Context, *core.GeneralProblem, *core.Options) (*core.Solution, error), size int) {
	b.Helper()
	p := problems.GeneralDense(size, size, 8, false)
	o := core.DefaultOptions()
	o.Epsilon = 0.001
	o.Criterion = core.MaxAbsDelta
	o.SkipDominanceCheck = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(context.Background(), p, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7_SEA_G400(b *testing.B)  { benchGeneral(b, core.SolveGeneral, 20) }
func BenchmarkTable7_RC_G400(b *testing.B)   { benchGeneral(b, baseline.SolveRC, 20) }
func BenchmarkTable7_SEA_G2500(b *testing.B) { benchGeneral(b, core.SolveGeneral, 50) }
func BenchmarkTable7_RC_G2500(b *testing.B)  { benchGeneral(b, baseline.SolveRC, 50) }

func BenchmarkTable7_BK_G100(b *testing.B) {
	p := problems.GeneralDense(10, 10, 8, false)
	o := core.DefaultOptions()
	o.Epsilon = 0.001
	o.MaxIterations = 100000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.SolveBK(context.Background(), p, o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 8: general migration problems ---------------------------------

func BenchmarkTable8_GeneralMigration(b *testing.B) {
	p := problems.GeneralMigration("6570", 'a', 9)
	o := core.DefaultOptions()
	o.Epsilon = 0.001
	o.Criterion = core.MaxAbsDelta
	o.SkipDominanceCheck = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveGeneral(context.Background(), p, o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 9 / Figure 7: SEA vs RC speedup pipeline ----------------------

func BenchmarkTable9_SpeedupPipeline(b *testing.B) {
	p := problems.GeneralDense(30, 30, 10, false)
	for i := 0; i < b.N; i++ {
		o := core.DefaultOptions()
		o.Epsilon = 0.001
		o.Criterion = core.MaxAbsDelta
		o.SkipDominanceCheck = true
		tr := &parsim.Recorder{}
		o.Trace = tr
		if _, err := core.SolveGeneral(context.Background(), p, o); err != nil {
			b.Fatal(err)
		}
		parsim.Speedups(tr.Phases, []int{2, 4})
	}
}

// --- Ablations ------------------------------------------------------------

// Checking convergence every iteration versus every fifth (the enhancement
// the paper suggests for the elastic examples, where the check is the only
// serial phase).
func BenchmarkAblation_CheckEvery1(b *testing.B) { benchCheckEvery(b, 1) }
func BenchmarkAblation_CheckEvery5(b *testing.B) { benchCheckEvery(b, 5) }

func benchCheckEvery(b *testing.B, every int) {
	b.Helper()
	sp := spe.Generate(80, 80, 11)
	p, err := sp.ToConstrainedMatrix()
	if err != nil {
		b.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Criterion = core.DualGradient
	o.Epsilon = 0.01
	o.CheckEvery = every
	o.MaxIterations = 500000
	solveDiag(b, p, o)
}

// Warm-starting the column multipliers (the general solver does this
// implicitly across projection steps).
func BenchmarkAblation_ColdStart(b *testing.B) { benchWarm(b, false) }
func BenchmarkAblation_WarmStart(b *testing.B) { benchWarm(b, true) }

func benchWarm(b *testing.B, warm bool) {
	b.Helper()
	p := problems.Table1(150, 12)
	base := fixedOpts(1e-6)
	sol, err := core.SolveDiagonal(context.Background(), p, base)
	if err != nil {
		b.Fatal(err)
	}
	o := fixedOpts(1e-6)
	if warm {
		o.Mu0 = sol.Mu
	}
	solveDiag(b, p, o)
}

// The experiments package's own end-to-end pipeline at a small scale.
func BenchmarkExperiments_Table3Pipeline(b *testing.B) {
	cfg := experiments.Config{Scale: 0.05, Procs: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Kernel ablation: the paper's sort-and-sweep exact equilibration versus a
// bisection root-finder on the same subproblem (exactness and O(n log n)
// versus tolerance-bounded O(n log(range/tol))). The subproblem clamps a few
// cells, so the exact kernel sorts and sweeps rather than solving at the
// interior root.
func BenchmarkAblation_KernelExact(b *testing.B)     { benchKernel(b, false) }
func BenchmarkAblation_KernelBisection(b *testing.B) { benchKernel(b, true) }

func benchKernel(b *testing.B, bisect bool) {
	b.Helper()
	p := kernelProblemFewClamps()
	kern := equilibrate.NewKernel(0)
	x := make([]float64, len(p.C))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if bisect {
			_, err = p.SolveBisection(x, 1e-10)
		} else {
			_, err = kern.Solve(p, x, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// kernelProblem is the 1000-variable subproblem of the kernel benchmarks.
// Its coefficients are all positive and its target above their sum, so no
// cell clamps at 0: the kernel solves it at its interior root, with no sort.
func kernelProblem() *equilibrate.Problem {
	rng := rand.New(rand.NewPCG(99, 100))
	n := 1000
	p := &equilibrate.Problem{C: make([]float64, n), A: make([]float64, n)}
	var sum float64
	for j := 0; j < n; j++ {
		p.C[j] = rng.Float64() * 1000
		p.A[j] = 0.1 + rng.Float64()
		sum += p.C[j]
	}
	p.R = sum * 1.5
	return p
}

// kernelProblemFewClamps is kernelProblem with every 100th coefficient at
// −2000, so those ten cells' breakpoints (≥ 1818) lie right of the root
// (≈ 430) and they clamp at 0: the interior attempt gives up at its first
// cell, and the kernel sorts and sweeps a block otherwise like
// kernelProblem's, over a like span of breakpoints.
func kernelProblemFewClamps() *equilibrate.Problem {
	p := kernelProblem()
	for j := 0; j < len(p.C); j += 100 {
		p.C[j] = -2000
	}
	return p
}

// kernelProblemClamped is kernelProblem with coefficients centred on 0 and
// the target their positive part's sum, so the root sits near 0 and about
// half the cells clamp there: the primal recovery's masked loop.
func kernelProblemClamped() *equilibrate.Problem {
	p := kernelProblem()
	p.R = 0
	for j := range p.C {
		p.C[j] -= 500
		p.R += max(p.C[j], 0)
	}
	return p
}

// Kernel warm start: re-solving a subproblem whose coefficients drifted
// slightly (the steady state of the dual ascent) with and without a
// persistent State. Both variants pay the same perturbation cost, so the
// delta is the sort-and-sweep saving alone. The pair's subproblem clamps a
// few cells, so both sort and sweep. The Clamped variant leaves about half
// the cells at 0. The Interior variant clamps none: it is solved at its
// interior root, with no sort, and its State goes unused.
func BenchmarkKernelColdResolve(b *testing.B) { benchKernelResolve(b, kernelProblemFewClamps(), false) }
func BenchmarkKernelWarmResolve(b *testing.B) { benchKernelResolve(b, kernelProblemFewClamps(), true) }
func BenchmarkKernelWarmResolveClamped(b *testing.B) {
	benchKernelResolve(b, kernelProblemClamped(), true)
}
func BenchmarkKernelInteriorResolve(b *testing.B) { benchKernelResolve(b, kernelProblem(), true) }

func benchKernelResolve(b *testing.B, p *equilibrate.Problem, warm bool) {
	b.Helper()
	n := len(p.C)
	kern := equilibrate.NewKernel(0)
	x := make([]float64, n)
	st := &equilibrate.State{}
	if _, err := kern.Solve(p, x, st); err != nil {
		b.Fatal(err)
	}
	if !warm {
		st = nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Small deterministic drift, as between dual-ascent iterations.
		p.C[i%n] += 1e-3
		if _, err := kern.Solve(p, x, st); err != nil {
			b.Fatal(err)
		}
	}
}

// Steady-state arena reuse: the same Table 1 instance solved back to back
// through one Arena and a caller-owned pool. After the first iteration every
// buffer, worker, and warm-start permutation is recycled — allocs/op should
// be (near) zero and ns/op below the cold BenchmarkTable1_Diagonal500.
func BenchmarkTable1_Diagonal500_ArenaReuse(b *testing.B) {
	p := problems.Table1(500, 1)
	pool := parallel.NewPool(1)
	defer pool.Close()
	ar := core.NewArena()
	defer ar.Close()
	o := fixedOpts(0.01)
	o.Runner = pool
	o.Arena = ar
	if _, err := core.SolveDiagonal(context.Background(), p, o); err != nil {
		b.Fatal(err)
	}
	solveDiag(b, p, o)
}

// Interval-totals solve (the Harrigan–Buchanan extension) on an I/O-style
// instance.
func BenchmarkExtension_IntervalTotals(b *testing.B) {
	base := problems.IOTable(problems.IOSpec{Name: "bench", Sectors: 80, Density: 0.5, Variant: problems.IOGrowth10, Seed: 13})
	n := base.N
	slo := make([]float64, n)
	shi := make([]float64, n)
	dlo := make([]float64, n)
	dhi := make([]float64, n)
	for i := 0; i < n; i++ {
		slo[i] = base.S0[i] * 0.95
		shi[i] = base.S0[i] * 1.05
		dlo[i] = base.D0[i] * 0.95
		dhi[i] = base.D0[i] * 1.05
	}
	p, err := core.NewInterval(n, n, base.X0, base.Gamma, slo, shi, dlo, dhi)
	if err != nil {
		b.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Criterion = core.DualGradient
	o.Epsilon = 1e-3
	o.MaxIterations = 500000
	solveDiag(b, p, o)
}

// Asymmetric spatial price equilibrium via the VI projection method.
func BenchmarkExtension_AsymmetricSPE(b *testing.B) {
	p := spe.GenerateAsymmetric(25, 25, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveAsymmetric(context.Background(), 1e-6, 50000, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The unsigned (Stone/Byron) direct estimator versus SEA on the same
// instance.
func BenchmarkBaseline_Unsigned(b *testing.B) {
	p := problems.Table1(60, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.SolveUnsigned(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}
