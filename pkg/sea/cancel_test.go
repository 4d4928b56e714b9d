package sea

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sea/internal/scale"
	"sea/internal/spe"
)

// waitGoroutines waits for the live goroutine count to settle back to the
// baseline, failing if it does not within the deadline — the leak detector
// for the solver-owned worker pools.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancellation: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelMidSolveDiagonal cancels a 500×500 diagonal solve from its own
// trace observer and requires the solve to return within one outer iteration
// with context.Canceled, the last consistent iterate attached, and no worker
// goroutines left behind.
func TestCancelMidSolveDiagonal(t *testing.T) {
	p := testFixed(t, 500, 500, 1.5)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cancelAt = 3
	o := DefaultOptions()
	o.Epsilon = 1e-300 // unreachable: the solve can only end by cancellation
	o.Criterion = DualGradient
	o.MaxIterations = 1 << 30
	o.Procs = 8
	o.Trace = TraceFunc(func(ev TraceEvent) {
		if ev.Iteration == cancelAt {
			cancel()
		}
	})

	sol, err := Solve(ctx, "sea", mustDiagonal(t, p), o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol == nil {
		t.Fatal("cancelled solve returned no iterate")
	}
	// Cancel fired during iteration cancelAt's observer call; the loop must
	// notice at the next iteration boundary.
	if sol.Iterations > cancelAt+1 {
		t.Fatalf("solve ran %d iterations after a cancel at %d; want return within one outer iteration", sol.Iterations, cancelAt)
	}
	if len(sol.X) != p.M*p.N {
		t.Fatalf("partial solution has %d entries, want %d", len(sol.X), p.M*p.N)
	}
	waitGoroutines(t, baseline)
}

// TestCancelPropagatesToEverySolver cancels each registry solver mid-solve
// via a pre-cancelled or observer-triggered context and requires ctx.Err()
// back. Solvers differ in how far a cancelled solve gets, but none may spin
// to completion or return a nil error.
func TestCancelPropagatesToEverySolver(t *testing.T) {
	p := testFixed(t, 12, 12, 1.4)
	for _, name := range Solvers() {
		if name == "unsigned" {
			// Single direct solve: cancellation is only observable before
			// the factorization, so use a pre-cancelled context.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := Solve(ctx, name, mustDiagonal(t, p), nil); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", name, err)
			}
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		o := DefaultOptions()
		o.Epsilon = 1e-300 // unreachable
		o.Criterion = DualGradient
		o.MaxIterations = 1 << 30
		// Cancel at the first observed iteration; the timer backstops
		// solvers whose first observable event is itself gated on an inner
		// solve that cannot converge (projgrad's Dykstra projections).
		o.Trace = TraceFunc(func(ev TraceEvent) { cancel() })
		timer := time.AfterFunc(15*time.Millisecond, cancel)
		_, err := Solve(ctx, name, mustDiagonal(t, p), o)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestDeadlineExceeded: an already-expired deadline aborts the solve
// promptly with context.DeadlineExceeded.
func TestDeadlineExceeded(t *testing.T) {
	p := testFixed(t, 50, 50, 1.3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	o := DefaultOptions()
	o.Epsilon = 1e-300
	o.MaxIterations = 1 << 30
	if _, err := Solve(ctx, "sea", mustDiagonal(t, p), o); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelWithSharedPool: cancellation must not kill a caller-owned pool —
// the workers park and stay reusable for the next solve.
func TestCancelWithSharedPool(t *testing.T) {
	p := testFixed(t, 100, 100, 1.4)
	o := DefaultOptions()
	o.Epsilon = 1e-300
	o.Criterion = DualGradient
	o.MaxIterations = 1 << 30
	o.Procs = 4

	ctx, cancel := context.WithCancel(context.Background())
	o.Trace = TraceFunc(func(ev TraceEvent) {
		if ev.Iteration == 2 {
			cancel()
		}
	})
	if _, err := Solve(ctx, "sea", mustDiagonal(t, p), o); !errors.Is(err, context.Canceled) {
		t.Fatalf("first solve: err = %v, want context.Canceled", err)
	}
	cancel()

	// The same options (fresh context, reachable tolerance) must solve fine.
	o2 := DefaultOptions()
	o2.Epsilon = 1e-6
	o2.Criterion = DualGradient
	o2.MaxIterations = 500000
	o2.Procs = 4
	sol, err := Solve(context.Background(), "sea", mustDiagonal(t, p), o2)
	if err != nil {
		t.Fatalf("solve after cancellation: %v", err)
	}
	if !sol.Converged {
		t.Fatal("solve after cancellation did not converge")
	}
}

// errOnCall is a context whose Err turns context.DeadlineExceeded on its
// k-th call and stays so, and which counts every call: a test can cut a
// solve at a chosen check without racing a timer against it.
type errOnCall struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *errOnCall) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.DeadlineExceeded
	}
	return nil
}

// TestCancelDuringPrecondition: the ISP warm start checks ctx between chunks
// of scale.StallWindow sweeps, so a deadline that passes inside the stage
// ends the solve at that check — with the context's error, no solution, no
// further look at the context and no worker goroutine left behind — instead
// of after the stage. The deadline passes at the middle one of the stage's
// checks, counted from an uncancelled solve's sweeps.
func TestCancelDuringPrecondition(t *testing.T) {
	d, err := spe.Generate(200, 200, 1).ToConstrainedMatrix()
	if err != nil {
		t.Fatal(err)
	}
	p := mustDiagonal(t, d)
	o := DefaultOptions()
	o.Criterion, o.Epsilon, o.Precondition = DualGradient, 0.01, PrecondISP
	o.Procs = 4
	full, err := Solve(context.Background(), "sea", p, o)
	if err != nil {
		t.Fatal(err)
	}
	checks := (full.PrecondSweeps + scale.StallWindow - 1) / scale.StallWindow
	if checks < 4 {
		t.Fatalf("the stage ran %d sweeps, %d checks; want a stage long enough to cut inside", full.PrecondSweeps, checks)
	}
	baseline := runtime.NumGoroutine()

	ctx := &errOnCall{Context: context.Background(), k: int64(checks / 2)}
	sol, err := Solve(ctx, "sea", p, o)
	if !errors.Is(err, context.DeadlineExceeded) || sol != nil {
		t.Fatalf("Solve returned a solution: %t, error %v; want none and context.DeadlineExceeded", sol != nil, err)
	}
	if n := ctx.calls.Load(); n != ctx.k {
		t.Fatalf("ctx.Err called %d times; want the solve to stop at call %d", n, ctx.k)
	}
	waitGoroutines(t, baseline)
}
