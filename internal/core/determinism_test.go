package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"sea/internal/parallel"
	"sea/internal/trace"
)

// determinismProblem builds a fixed-seed 100×150 bounded fixed-totals
// instance that exercises both phases, the box bounds, and the tiled
// column path. Every total grows 1.2× inside generous boxes, so
// most rows and columns are solved at their interior root; the first ten
// diagonal cells are capped at their priors, so their rows and columns
// saturate there and take the kernel's sort and sweep, warm starts
// included.
func determinismProblem(t *testing.T) *DiagonalProblem {
	t.Helper()
	m, n := 100, 150
	rng := rand.New(rand.NewPCG(42, 7))
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	upper := make([]float64, m*n)
	for k := range x0 {
		x0[k] = rng.Float64() * 10
		gamma[k] = 0.5 + rng.Float64()
		upper[k] = 25 + rng.Float64()*10
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := 1.2 * x0[i*n+j]
			s0[i] += v
			d0[j] += v
		}
	}
	p, err := NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		upper[i*n+i] = x0[i*n+i]
	}
	p.Upper = upper
	return p
}

// TestSolveDeterministicAcrossProcs asserts the full solution — X down to
// the last bit, plus both multiplier vectors — is identical for every worker
// count, whether the solver owns its worker pool (the default) or the
// caller shares one through Options.Runner. This is the paper's determinism
// property: workers own disjoint subproblem ranges, so
// parallelism changes timing and nothing else.
func TestSolveDeterministicAcrossProcs(t *testing.T) {
	p := determinismProblem(t)
	opts := func() *Options {
		o := DefaultOptions()
		o.Criterion = MaxAbsDelta
		o.Epsilon = 1e-6
		o.ParallelConvCheck = true
		return o
	}

	ref, err := SolveDiagonal(context.Background(), p, opts())
	if err != nil {
		t.Fatalf("serial reference solve: %v", err)
	}
	if !ref.Converged {
		t.Fatal("serial reference did not converge")
	}

	check := func(name string, sol *Solution) {
		t.Helper()
		for k := range ref.X {
			if sol.X[k] != ref.X[k] {
				t.Fatalf("%s: X[%d] = %v, want %v (bit-exact)", name, k, sol.X[k], ref.X[k])
			}
		}
		for i := range ref.Lambda {
			if sol.Lambda[i] != ref.Lambda[i] {
				t.Fatalf("%s: Lambda[%d] = %v, want %v", name, i, sol.Lambda[i], ref.Lambda[i])
			}
		}
		for j := range ref.Mu {
			if sol.Mu[j] != ref.Mu[j] {
				t.Fatalf("%s: Mu[%d] = %v, want %v", name, j, sol.Mu[j], ref.Mu[j])
			}
		}
		if sol.Iterations != ref.Iterations {
			t.Fatalf("%s: %d iterations, want %d", name, sol.Iterations, ref.Iterations)
		}
	}

	for _, procs := range []int{1, 2, 7, 16} {
		// The default substrate: a solver-owned persistent pool.
		o := opts()
		o.Procs = procs
		sol, err := SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatalf("pool procs=%d: %v", procs, err)
		}
		check("pool", sol)

		// A caller-owned shared pool via Options.Runner.
		pool := parallel.NewPool(procs)
		o = opts()
		o.Runner = pool
		sol, err = SolveDiagonal(context.Background(), p, o)
		pool.Close()
		if err != nil {
			t.Fatalf("shared pool procs=%d: %v", procs, err)
		}
		check("shared pool", sol)
	}
}

// TestSolveDeterministicWithTrace asserts that attaching a Trace observer is
// purely passive: the solution stays bit-exact against the untraced serial
// reference for every worker count, the observer sees exactly one event per
// outer iteration, and the auto-attached counters report through the events.
func TestSolveDeterministicWithTrace(t *testing.T) {
	p := determinismProblem(t)
	opts := func() *Options {
		o := DefaultOptions()
		o.Criterion = MaxAbsDelta
		o.Epsilon = 1e-6
		o.ParallelConvCheck = true
		return o
	}

	ref, err := SolveDiagonal(context.Background(), p, opts())
	if err != nil {
		t.Fatalf("serial reference solve: %v", err)
	}

	for _, procs := range []int{1, 2, 7, 16} {
		var col trace.Collector
		o := opts()
		o.Procs = procs
		o.Trace = &col
		sol, err := SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatalf("traced solve procs=%d: %v", procs, err)
		}
		for k := range ref.X {
			if sol.X[k] != ref.X[k] {
				t.Fatalf("procs=%d: X[%d] = %v, want %v (bit-exact with trace attached)", procs, k, sol.X[k], ref.X[k])
			}
		}
		for i := range ref.Lambda {
			if sol.Lambda[i] != ref.Lambda[i] {
				t.Fatalf("procs=%d: Lambda[%d] = %v, want %v", procs, i, sol.Lambda[i], ref.Lambda[i])
			}
		}
		for j := range ref.Mu {
			if sol.Mu[j] != ref.Mu[j] {
				t.Fatalf("procs=%d: Mu[%d] = %v, want %v", procs, j, sol.Mu[j], ref.Mu[j])
			}
		}
		if sol.Iterations != ref.Iterations {
			t.Fatalf("procs=%d: %d iterations, want %d", procs, sol.Iterations, ref.Iterations)
		}
		if len(col.Events) != sol.Iterations {
			t.Fatalf("procs=%d: %d trace events, want one per iteration (%d)", procs, len(col.Events), sol.Iterations)
		}
		for i, ev := range col.Events {
			if ev.Iteration != i+1 {
				t.Fatalf("procs=%d: event %d has Iteration %d", procs, i, ev.Iteration)
			}
			if ev.Solver != "sea" {
				t.Fatalf("procs=%d: event solver %q, want %q", procs, ev.Solver, "sea")
			}
			if ev.Equilibrations <= 0 {
				t.Fatalf("procs=%d: event %d reports %d equilibrations; counters were not subsumed", procs, i, ev.Equilibrations)
			}
		}
		last := col.Last()
		if last.Iteration == 0 || !last.Checked {
			t.Fatalf("procs=%d: final event missing or unchecked: %+v", procs, last)
		}
	}
}
