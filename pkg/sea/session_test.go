package sea

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"
)

// driftingPeriods builds a sequence of same-shape fixed-totals problems whose
// priors drift slowly period to period — the temporal workload shape.
func driftingPeriods(t testing.TB, m, n, periods int) []*Problem {
	t.Helper()
	rng := rand.New(rand.NewPCG(99, 100))
	x0 := make([]float64, m*n)
	for k := range x0 {
		x0[k] = 1 + rng.Float64()*10
	}
	// Per-row/column growth factors are fixed for the whole sequence, so the
	// dual solution drifts as slowly as the prior does — the warm-start-able
	// structure of a real monthly series.
	rowGrowth := make([]float64, m)
	colGrowth := make([]float64, n)
	for i := range rowGrowth {
		rowGrowth[i] = 1.05 + 0.4*rng.Float64()
	}
	for j := range colGrowth {
		colGrowth[j] = 1.05 + 0.4*rng.Float64()
	}
	out := make([]*Problem, periods)
	for p := 0; p < periods; p++ {
		cur := make([]float64, m*n)
		gamma := make([]float64, m*n)
		for k := range cur {
			cur[k] = x0[k] * (1 + 0.02*float64(p)*(0.5+rng.Float64()))
			gamma[k] = 1 / cur[k]
		}
		// Non-proportional targets (rebalanced to a common mass) so the
		// optimum is not a trivial rescaling of the prior.
		s0 := make([]float64, m)
		d0 := make([]float64, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s0[i] += rowGrowth[i] * cur[i*n+j]
			}
		}
		var totS, totD float64
		for _, v := range s0 {
			totS += v
		}
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				d0[j] += colGrowth[j] * cur[i*n+j]
			}
			totD += d0[j]
		}
		for j := range d0 {
			d0[j] *= totS / totD
		}
		dp, err := NewFixed(m, n, cur, gamma, s0, d0)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = mustDiagonal(t, dp)
	}
	return out
}

// TestSessionChainedBitIdenticalToCold: the default session (arena chaining
// only) must return, for every period, a solution bit-identical to solving
// that period cold — reuse buys allocations, not different numbers.
func TestSessionChainedBitIdenticalToCold(t *testing.T) {
	periods := driftingPeriods(t, 10, 8, 6)
	opts := []Option{
		WithEpsilon(1e-9),
		WithMaxIterations(500000),
	}
	s := NewSession(opts...)
	defer s.Close()
	for i, p := range periods {
		chained, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("period %d chained: %v", i, err)
		}
		cold, err := SolveWith(context.Background(), p, opts...)
		if err != nil {
			t.Fatalf("period %d cold: %v", i, err)
		}
		if chained.Iterations != cold.Iterations {
			t.Fatalf("period %d: chained %d iterations, cold %d", i, chained.Iterations, cold.Iterations)
		}
		for k := range cold.X {
			if chained.X[k] != cold.X[k] {
				t.Fatalf("period %d: X[%d] = %v chained, %v cold — not bit-identical", i, k, chained.X[k], cold.X[k])
			}
		}
		for j := range cold.Mu {
			if chained.Mu[j] != cold.Mu[j] {
				t.Fatalf("period %d: Mu[%d] differs from cold", i, j)
			}
		}
	}
	st := s.Stats()
	if st.Periods != len(periods) || st.M != 10 || st.N != 8 || st.WarmDuals {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSessionSolutionsDetached: a period's solution must stay intact after
// later periods reuse the arena.
func TestSessionSolutionsDetached(t *testing.T) {
	periods := driftingPeriods(t, 6, 6, 3)
	s := NewSession(WithEpsilon(1e-8), WithMaxIterations(500000))
	defer s.Close()
	first, err := s.Solve(context.Background(), periods[0])
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), first.X...)
	for _, p := range periods[1:] {
		if _, err := s.Solve(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	for k := range snapshot {
		if first.X[k] != snapshot[k] {
			t.Fatalf("period 0's solution mutated at %d after later solves", k)
		}
	}
}

// TestSessionDualWarmStartSavesIterations: with WithDualWarmStart(true) on a
// drifting sequence, the chained periods converge in fewer total iterations
// than solving each period cold, and every solution stays KKT-valid.
func TestSessionDualWarmStartSavesIterations(t *testing.T) {
	periods := driftingPeriods(t, 14, 12, 6)
	opts := []Option{
		WithEpsilon(1e-9),
		WithMaxIterations(500000),
	}
	var coldIters int
	for _, p := range periods {
		sol, err := SolveWith(context.Background(), p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		coldIters += sol.Iterations
	}
	s := NewSession(append(opts, WithDualWarmStart(true))...)
	defer s.Close()
	var warmIters int
	for i, p := range periods {
		sol, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
		warmIters += sol.Iterations
		if rep := CheckKKT(p.Diagonal, sol); !rep.Satisfied(1e-6) {
			t.Fatalf("period %d warm solution fails KKT: %+v", i, rep)
		}
	}
	if warmIters >= coldIters {
		t.Fatalf("dual warm start saved nothing: %d warm vs %d cold iterations", warmIters, coldIters)
	}
	if st := s.Stats(); st.TotalIterations != warmIters || !st.WarmDuals {
		t.Fatalf("stats = %+v, want TotalIterations %d, WarmDuals", st, warmIters)
	}
}

// TestSessionEntropyObjective: sessions work for the entropy family too
// (Mu0 warm starts feed the generalized-scaling solver directly).
func TestSessionEntropyObjective(t *testing.T) {
	periods := driftingPeriods(t, 8, 7, 4)
	s := NewSession(
		WithObjective(ObjectiveEntropy),
		WithEpsilon(1e-9),
		WithMaxIterations(200000),
		WithDualWarmStart(true),
	)
	defer s.Close()
	for i, p := range periods {
		sol, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
		if sol.ObjectiveKind != ObjectiveEntropy {
			t.Fatalf("period %d: ObjectiveKind = %v", i, sol.ObjectiveKind)
		}
		if rep := CheckKKTObjective(p.Diagonal, sol, ObjectiveEntropy); !rep.Satisfied(1e-6) {
			t.Fatalf("period %d entropy KKT: %+v", i, rep)
		}
	}
}

// TestSessionShapePinning: the first solve pins the shape; a mismatched
// period is rejected with ErrInvalidProblem.
func TestSessionShapePinning(t *testing.T) {
	s := NewSession(WithEpsilon(1e-6))
	defer s.Close()
	if _, err := s.Solve(context.Background(), mustDiagonal(t, testFixed(t, 4, 4, 1.2))); err != nil {
		t.Fatal(err)
	}
	_, err := s.Solve(context.Background(), mustDiagonal(t, testFixed(t, 5, 4, 1.2)))
	if !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("shape mismatch: err = %v, want ErrInvalidProblem", err)
	}
}

// TestSessionClosed: solving after Close fails with ErrSessionClosed.
func TestSessionClosed(t *testing.T) {
	s := NewSession()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	_, err := s.Solve(context.Background(), mustDiagonal(t, testFixed(t, 3, 3, 1.1)))
	if !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("err = %v, want ErrSessionClosed", err)
	}
}

// TestSolveWithFunctionalOptions: the option helpers assemble the same solve
// the struct form runs, and WithDeadline bounds the wall time.
func TestSolveWithFunctionalOptions(t *testing.T) {
	p := mustDiagonal(t, testFixed(t, 6, 5, 1.3))
	o := DefaultOptions()
	o.Epsilon = 1e-8
	o.Criterion = DualGradient
	o.MaxIterations = 200000
	ref, err := Solve(context.Background(), "sea", p, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveWith(context.Background(), p,
		WithOptions(o),
		WithSolver("sea"),
	)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref.X {
		if got.X[k] != ref.X[k] {
			t.Fatalf("functional options changed the solve at %d", k)
		}
	}

	var col TraceCollector
	sol, err := SolveWith(context.Background(), p,
		WithEpsilon(1e-8),
		WithMaxIterations(200000),
		WithTrace(&col),
		WithProcs(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Events) != sol.Iterations {
		t.Fatalf("WithTrace: %d events, want %d", len(col.Events), sol.Iterations)
	}

	// An already-expired deadline must abort promptly with DeadlineExceeded.
	_, err = SolveWith(context.Background(), p,
		WithEpsilon(1e-300),
		WithMaxIterations(1<<30),
		WithDeadline(time.Now().Add(-time.Second)),
	)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WithDeadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// BenchmarkSessionPeriod times one period of a warm session: a 200×150
// Session with dual warm starts cycling through 24 drifting periods, the
// shape of the sequence-warm workload. Periods converge in about one
// iteration, so the per-period fixed cost — validation, the column mirrors,
// packaging the solution — is a large share of ns/period.
func BenchmarkSessionPeriod(b *testing.B) {
	periods := driftingPeriods(b, 200, 150, 24)
	s := NewSession(WithDualWarmStart(true))
	defer s.Close()
	ctx := context.Background()
	for _, p := range periods { // fill the arena and the warm duals
		if _, err := s.Solve(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(ctx, periods[i%len(periods)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/period")
}
