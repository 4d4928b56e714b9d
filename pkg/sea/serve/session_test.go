package serve

import (
	"context"
	"errors"
	"math"
	"testing"

	"sea/internal/problems"
	"sea/pkg/sea"
)

// temporalProblems wraps a temporal spec's periods in facade problems.
func temporalProblems(t *testing.T, spec problems.TemporalSpec) []*sea.Problem {
	t.Helper()
	raw := problems.Temporal(spec)
	out := make([]*sea.Problem, len(raw))
	for i, d := range raw {
		p, err := sea.NewDiagonalDense(d)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// TestServerSessionWarmDuals: a server-hosted sequence with dual warm starts
// must spend fewer total iterations than cold Submits of the same periods,
// stay KKT-valid, and be fully accounted in the server's stats.
func TestServerSessionWarmDuals(t *testing.T) {
	spec := problems.TemporalSpec{Name: "t", M: 14, N: 12, Periods: 6, Drift: 0.02, Seed: 3}
	periods := temporalProblems(t, spec)
	base := sea.DefaultOptions()
	base.Epsilon = 1e-9
	base.MaxIterations = 500000

	s, err := newServer(Config{MaxInFlight: 2, Options: base})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	var coldIters int
	for _, p := range periods {
		sol, err := s.Submit(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		coldIters += sol.Iterations
	}

	ses, err := s.NewSession(SessionConfig{WarmDuals: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	var warmIters int
	for i, p := range periods {
		sol, err := ses.Solve(ctx, p)
		if err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
		warmIters += sol.Iterations
		if rep := sea.CheckKKT(p.Diagonal, sol); !rep.Satisfied(1e-6) {
			t.Fatalf("period %d warm solution fails KKT: %+v", i, rep)
		}
	}
	if warmIters >= coldIters {
		t.Fatalf("dual warm start saved nothing: %d warm vs %d cold iterations", warmIters, coldIters)
	}
	if st := ses.Stats(); st.Periods != len(periods) || st.TotalIterations != warmIters || !st.WarmDuals {
		t.Fatalf("session stats = %+v", st)
	}
	if st := s.Stats(); st.Submitted != uint64(2*len(periods)) || st.Completed != uint64(2*len(periods)) {
		t.Fatalf("server stats did not count session solves: %+v", st)
	}
}

// TestServerSessionDefaultMatchesSubmit: without warm duals a session period
// is bit-identical to a plain Submit of the same problem.
func TestServerSessionDefaultMatchesSubmit(t *testing.T) {
	spec := problems.TemporalSpec{Name: "t", M: 10, N: 8, Periods: 4, Drift: 0.02, Seed: 5}
	periods := temporalProblems(t, spec)
	base := sea.DefaultOptions()
	base.Epsilon = 1e-9
	base.MaxIterations = 500000
	s, err := newServer(Config{MaxInFlight: 1, Options: base})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	ses, err := s.NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	for i, p := range periods {
		chained, err := ses.Solve(ctx, p)
		if err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
		cold, err := s.Submit(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if chained.Iterations != cold.Iterations {
			t.Fatalf("period %d: chained %d iterations, cold %d", i, chained.Iterations, cold.Iterations)
		}
		for k := range cold.X {
			if chained.X[k] != cold.X[k] {
				t.Fatalf("period %d: X[%d] differs from cold", i, k)
			}
		}
	}
}

// TestServerSessionObjectiveOverride: a session opened on RequestOptions
// overrides solves the requested family.
func TestServerSessionObjectiveOverride(t *testing.T) {
	spec := problems.TemporalSpec{Name: "t", M: 8, N: 7, Periods: 3, Drift: 0.02, Seed: 8}
	periods := temporalProblems(t, spec)
	base := sea.DefaultOptions()
	base.Epsilon = 1e-9
	base.MaxIterations = 200000
	s, err := newServer(Config{MaxInFlight: 1, Options: base})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ses, err := s.NewSession(SessionConfig{
		Options:   s.RequestOptions(WithObjective(sea.ObjectiveEntropy)),
		WarmDuals: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	for i, p := range periods {
		sol, err := ses.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
		if sol.ObjectiveKind != sea.ObjectiveEntropy {
			t.Fatalf("period %d: ObjectiveKind = %v", i, sol.ObjectiveKind)
		}
		if rep := sea.CheckKKTObjective(p.Diagonal, sol, sea.ObjectiveEntropy); !rep.Satisfied(1e-6) {
			t.Fatalf("period %d entropy KKT: %+v", i, rep)
		}
	}
}

// TestServerSessionLifecycle: shape pinning, ErrSessionClosed after Close,
// and server Close closing open sessions.
func TestServerSessionLifecycle(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ses, err := s.NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Solve(ctx, testProblem(t, 6, 6, 1.2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Solve(ctx, testProblem(t, 7, 6, 1.2, 1)); !errors.Is(err, sea.ErrInvalidProblem) {
		t.Fatalf("shape mismatch: err = %v, want ErrInvalidProblem", err)
	}
	if err := ses.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ses.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if _, err := ses.Solve(ctx, testProblem(t, 6, 6, 1.2, 1)); !errors.Is(err, sea.ErrSessionClosed) {
		t.Fatalf("closed session: err = %v, want ErrSessionClosed", err)
	}

	// A session still open when the server closes is closed by the server.
	open, err := s.NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := open.Solve(ctx, testProblem(t, 6, 6, 1.2, 1)); !errors.Is(err, sea.ErrSessionClosed) {
		t.Fatalf("after server Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.NewSession(SessionConfig{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewSession on closed server: err = %v, want ErrClosed", err)
	}
}

// TestServerSessionInvalidPeriodNotCounted: as with sea.Session, a period
// that fails validation neither counts nor pins the session's shape, and an
// invalid period of the wrong shape reports its own error, not the mismatch.
func TestServerSessionInvalidPeriodNotCounted(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	ses, err := s.NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	bad := testProblem(t, 6, 5, 1.2, 1)
	bad.Diagonal.Gamma[5] = math.NaN()
	want := bad.Validate()
	if want == nil {
		t.Fatal("NaN period is valid")
	}
	if _, err := ses.Solve(ctx, bad); err == nil || err.Error() != want.Error() {
		t.Fatalf("invalid period: err = %v, want %v", err, want)
	}
	if st := ses.Stats(); st.Periods != 0 {
		t.Fatalf("invalid period counted: %+v", st)
	}
	if _, err := ses.Solve(ctx, testProblem(t, 8, 7, 1.2, 2)); err != nil {
		t.Fatalf("valid 8×7 period after an invalid 6×5 one: %v", err)
	}
	if st := ses.Stats(); st.Periods != 1 || st.M != 8 || st.N != 7 {
		t.Fatalf("after one valid 8×7 period: %+v", st)
	}
	if _, err := ses.Solve(ctx, bad); err == nil || err.Error() != want.Error() {
		t.Fatalf("invalid period of another shape: err = %v, want %v", err, want)
	}
	if st := ses.Stats(); st.Periods != 1 {
		t.Fatalf("invalid period counted: %+v", st)
	}
}

// TestShardedSession: the sharded server opens sessions too (round-robin
// across shards) and they solve normally.
func TestShardedSession(t *testing.T) {
	spec := problems.TemporalSpec{Name: "t", M: 9, N: 8, Periods: 3, Drift: 0.02, Seed: 13}
	periods := temporalProblems(t, spec)
	sh, err := NewSharded(ShardedConfig{Shards: 2, Server: Config{MaxInFlight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for round := 0; round < 3; round++ {
		ses, err := sh.NewSession(SessionConfig{WarmDuals: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range periods {
			if _, err := ses.Solve(context.Background(), p); err != nil {
				t.Fatalf("round %d period %d: %v", round, i, err)
			}
		}
		if err := ses.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
