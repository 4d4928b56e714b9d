package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sea/internal/metrics"
	"sea/internal/parsim"
	"sea/internal/trace"
)

// restoreBatchEvents returns the default batch budget and puts it back when
// the test ends, so a test may move it freely. Core tests do not run in
// parallel, so the package variable is not shared with a concurrent solve.
func restoreBatchEvents(t *testing.T) int {
	t.Helper()
	def := batchEvents
	t.Cleanup(func() { batchEvents = def })
	return def
}

// tracedSolve solves p with fresh Counters and a cost Recorder observing.
func tracedSolve(t *testing.T, p *DiagonalProblem, o *Options) (*Solution, metrics.Snapshot, []trace.PhaseCosts) {
	t.Helper()
	c := &metrics.Counters{}
	rec := &parsim.Recorder{}
	o.Trace = trace.Multi(c, rec)
	sol, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	return sol, c.Snapshot(), rec.Phases
}

// TestBatchedMatchesUnbatchedAcrossProcs is the batched phase body's core-
// level contract: for every worker count and batch budget — including
// everything-in-one-batch — the phases produce the same solution, bit for
// bit, and the same per-task cost trace and kernel counters, as the budget-1
// reference that batches one subproblem at a time. (The equilibrate package
// proves every batch sort route bit-identical to plain insertion, one
// subproblem at a time, which thus stays the oracle one layer down.) The cost trace is the parsim speedup
// model's input, so it must not depend on how the work was partitioned
// either, and nor may the count of subproblems solved at their interior
// root. Covered on the dense bounded problem, most of whose subproblems are
// interior while the rows and columns of its capped cells sort, and on a
// bounded CSR family.
func TestBatchedMatchesUnbatchedAcrossProcs(t *testing.T) {
	def := restoreBatchEvents(t)
	problems := map[string]*DiagonalProblem{
		"dense":             determinismProblem(t),
		"csr/fixed/bounded": sparseFamilies(t)["fixed/bounded"],
	}
	opts := func(procs int) *Options {
		o := DefaultOptions()
		o.Criterion = MaxAbsDelta
		o.Epsilon = 1e-6
		o.Procs = procs
		return o
	}
	for name, p := range problems {
		batchEvents = 1
		ref, refC, refCT := tracedSolve(t, p, opts(1))
		if !ref.Converged {
			t.Fatalf("%s: budget-1 reference did not converge", name)
		}
		if in, eq := refC.Interior, refC.Equilibrations; name == "dense" && (in == 0 || in == eq) {
			t.Fatalf("%s: %d of %d subproblems solved at their interior root, want some", name, in, eq)
		}
		for _, procs := range []int{1, 2, 7, 16} {
			for _, events := range []int{1, 997, def, 1 << 20} {
				batchEvents = events
				tag := fmt.Sprintf("%s/procs=%d/events=%d", name, procs, events)
				sol, c, ct := tracedSolve(t, p, opts(procs))
				sameSolution(t, tag, sol, ref)
				if c.Equilibrations != refC.Equilibrations || c.Interior != refC.Interior || c.Ops != refC.Ops {
					t.Fatalf("%s: counters equil=%d interior=%d ops=%d, want %d/%d/%d",
						tag, c.Equilibrations, c.Interior, c.Ops, refC.Equilibrations, refC.Interior, refC.Ops)
				}
				sameCostTrace(t, tag, ct, refCT)
			}
		}
	}
}

// TestDenseColumnTileBatchBoundaries: the dense column phase gathers each
// batch of columns from row-major storage into its worker's tile and
// scatters x back when the batch ends, so a batch boundary falls between
// any two columns. Every dense family — fixed, elastic, balanced, interval,
// and bounded above and below — solves to the same bits with one column per
// batch, with the default budget, and with a budget past all n columns, at
// one and at two workers.
func TestDenseColumnTileBatchBoundaries(t *testing.T) {
	def := restoreBatchEvents(t)
	rng := rand.New(rand.NewPCG(61, 62))
	lower := randFixed(rng, 23, 29, 100, 2)
	lower.Lower = make([]float64, 23*29)
	for k := range lower.Lower {
		if rng.Float64() < 0.4 {
			lower.Lower[k] = rng.Float64() * lower.S0[0] / float64(4*29)
		}
	}
	families := map[string]*DiagonalProblem{
		"fixed":    randFixed(rng, 37, 53, 100, 1.3),
		"elastic":  randElastic(rng, 31, 27),
		"balanced": randBalanced(rng, 33),
		"interval": randInterval(rng, 26, 35, 0.2),
		"upper":    determinismProblem(t),
		"lower":    lower,
	}
	for name, p := range families {
		opts := func(procs int) *Options {
			o := DefaultOptions()
			o.Epsilon = 1e-9
			o.Procs = procs
			return o
		}
		batchEvents = 1
		ref, err := SolveDiagonal(context.Background(), p, opts(1))
		if err != nil {
			t.Fatalf("%s: one-column reference: %v", name, err)
		}
		for _, procs := range []int{1, 2} {
			for _, events := range []int{1, def, 2 * p.M * p.N} {
				batchEvents = events
				sol, err := SolveDiagonal(context.Background(), p, opts(procs))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameSolution(t, fmt.Sprintf("%s/procs=%d/events=%d", name, procs, events), sol, ref)
			}
		}
	}
}

// sameCostTrace requires identical per-phase Row/Col/Serial costs.
func sameCostTrace(t *testing.T, name string, got, want []trace.PhaseCosts) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d traced phases, want %d", name, len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if !slices.Equal(g.Row, w.Row) || !slices.Equal(g.Col, w.Col) || g.Serial != w.Serial {
			t.Fatalf("%s: phase %d costs differ from the budget-1 reference", name, k)
		}
	}
}

// onsetProblem builds an elastic instance whose dual descent takes well over
// warmOnset iterations to converge (elastic totals couple the two phases
// through the multipliers, so tight tolerances mean long runs).
func onsetProblem(t *testing.T) *DiagonalProblem {
	t.Helper()
	m, n := 40, 60
	rng := rand.New(rand.NewPCG(17, 23))
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = rng.Float64() * 10
		gamma[k] = 0.5 + rng.Float64()
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	alpha := make([]float64, m)
	beta := make([]float64, n)
	for i := range s0 {
		s0[i] = 100 + rng.Float64()*50
		alpha[i] = 0.05 + rng.Float64()*0.05
	}
	for j := range d0 {
		d0[j] = 80 + rng.Float64()*40
		beta[j] = 0.05 + rng.Float64()*0.05
	}
	p, err := NewElastic(m, n, x0, gamma, s0, alpha, d0, beta)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBatchedLongSolveWarmOnset drives the solve past the warm-start onset
// (iterations > warmOnset without an arena) with a tight tolerance, so the
// batched body exercises warm replays through the mid-solve State slots —
// and still matches the budget-1 reference bit for bit.
func TestBatchedLongSolveWarmOnset(t *testing.T) {
	def := restoreBatchEvents(t)
	p := onsetProblem(t)
	opts := func() *Options {
		o := DefaultOptions()
		o.Criterion = MaxAbsDelta
		o.Epsilon = 1e-11
		o.MaxIterations = 5000
		return o
	}

	batchEvents = 1
	ref, err := SolveDiagonal(context.Background(), p, opts())
	if err != nil {
		t.Fatalf("budget-1 reference solve: %v", err)
	}
	if ref.Iterations <= warmOnset {
		t.Fatalf("instance converged in %d iterations; the test needs > %d to engage warm onset",
			ref.Iterations, warmOnset)
	}

	batchEvents = def
	sol, err := SolveDiagonal(context.Background(), p, opts())
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "batched-onset", sol, ref)
}

// TestWarmOnsetReplaysFromIteration4: without an arena, a cold solve fills
// its warm-start slot at iteration warmOnset+1 = 3 and replays it from
// iteration 4 — no State takes a fast sort before then, and some do in
// iteration 4.
func TestWarmOnsetReplaysFromIteration4(t *testing.T) {
	if warmOnset+2 != 4 {
		t.Fatalf("warmOnset = %d: warm replays begin at iteration %d, want 4", warmOnset, warmOnset+2)
	}
	o := DefaultOptions()
	o.Criterion = MaxAbsDelta
	o.Epsilon = 1e-11
	o.MaxIterations = 5000
	o = o.WithDefaults()
	var st *diagState
	fast := func() (n int64) {
		for _, sd := range []*side{&st.rows, &st.cols} {
			for _, sts := range sd.slots {
				for i := range sts {
					n += sts[i].FastSorts
				}
			}
		}
		return n
	}
	perIter := map[int]int64{}
	var seen int64
	o.Trace = trace.Func(func(ev trace.Event) {
		n := fast()
		perIter[ev.Iteration] = n - seen
		seen = n
	})
	st = newDiagState(context.Background(), onsetProblem(t), o)
	defer st.close()
	if err := st.run(); err != nil {
		t.Fatal(err)
	}
	if st.iterations < 4 {
		t.Fatalf("converged in %d iterations; the test needs at least 4", st.iterations)
	}
	for it := 1; it <= 3; it++ {
		if perIter[it] != 0 {
			t.Errorf("iteration %d: %d warm replays before the onset", it, perIter[it])
		}
	}
	if perIter[4] == 0 {
		t.Errorf("iteration 4 took no warm replay")
	}
}

// TestTwoIterationColdSolveAllocatesNoStates: a cold dense solve that
// converges in 2 iterations — within warmOnset — never engages the kernel
// warm-start States, so it allocates exactly what a solve with warm starts
// turned off allocates.
func TestTwoIterationColdSolveAllocatesNoStates(t *testing.T) {
	t.Cleanup(func() { disableWarmStart = false })
	// Table 1's doubling instance: totals twice the prior's, γ = 1/x⁰.
	const n = 60
	rng := rand.New(rand.NewPCG(5, 1))
	x0, gamma := make([]float64, n*n), make([]float64, n*n)
	s0, d0 := make([]float64, n), make([]float64, n)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*9999.9
		gamma[k] = 1 / x0[k]
		s0[k/n] += 2 * x0[k]
		d0[k%n] += 2 * x0[k]
	}
	p, err := NewFixed(n, n, x0, gamma, s0, d0)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Criterion = MaxAbsDelta
	o.Epsilon = 0.01
	sol, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iterations != 2 {
		t.Fatalf("converged in %d iterations, want 2", sol.Iterations)
	}
	allocs := func() float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := SolveDiagonal(context.Background(), p, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs() // the first runs still fill lazily built buffers
	warm := allocs()
	disableWarmStart = true
	off := allocs()
	if warm != off {
		t.Fatalf("2-iteration cold solve allocates %.0f/op, %.0f/op with warm starts off: it must not engage the warm-start States", warm, off)
	}
}

// TestBatchedArenaWarmBitExact runs back-to-back arena solves — the second
// replays per-iteration warm slots through the batch — against budget-1
// arena solves of the same sequence.
func TestBatchedArenaWarmBitExact(t *testing.T) {
	def := restoreBatchEvents(t)
	p := determinismProblem(t)
	opts := func() *Options {
		o := DefaultOptions()
		o.Criterion = MaxAbsDelta
		o.Epsilon = 1e-6
		o.Arena = NewArena()
		return o
	}
	ob, ou := opts(), opts()
	for round := 0; round < 3; round++ {
		batchEvents = 1
		want, err := SolveDiagonal(context.Background(), p, ou)
		if err != nil {
			t.Fatalf("round %d budget-1: %v", round, err)
		}
		batchEvents = def
		got, err := SolveDiagonal(context.Background(), p, ob)
		if err != nil {
			t.Fatalf("round %d batched: %v", round, err)
		}
		sameSolution(t, fmt.Sprintf("arena-round-%d", round), got, want)
	}
}
