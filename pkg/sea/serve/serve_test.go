package serve

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"sea/internal/testutil"
	"sea/pkg/sea"
)

// newServer starts a one-shard server over cfg: with one shard every
// request meets the same admission control, pools and counters.
func newServer(cfg Config) (*ShardedServer, error) {
	return NewSharded(ShardedConfig{Server: cfg})
}

// testProblem builds a feasible fixed-totals diagonal problem of order m×n
// wrapped for the facade.
func testProblem(t testing.TB, m, n int, growth float64, seed uint64) *sea.Problem {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 17))
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = 0.5 + rng.Float64()*10
		gamma[k] = 1 / x0[k]
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s0[i] += growth * x0[i*n+j]
			d0[j] += growth * x0[i*n+j]
		}
	}
	d, err := sea.NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sea.NewDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkRowTotals verifies the solved matrix meets the problem's row totals.
func checkRowTotals(t *testing.T, p *sea.Problem, sol *sea.Solution) {
	t.Helper()
	d := p.Diagonal
	for i := 0; i < d.M; i++ {
		var rs float64
		for j := 0; j < d.N; j++ {
			rs += sol.X[i*d.N+j]
		}
		if math.Abs(rs-d.S0[i]) > 1e-4*(1+d.S0[i]) {
			t.Fatalf("row %d total %g, want %g", i, rs, d.S0[i])
		}
	}
}

// TestSubmitSolvesAndDetaches: a Submit result is correct, carries an
// explicit status, and does not alias pooled arena memory (a second solve
// on the same shape must not corrupt the first result).
func TestSubmitSolvesAndDetaches(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := testProblem(t, 12, 9, 1.3, 1)
	sol1, err := s.Submit(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol1.Status != sea.StatusConverged || !sol1.Converged {
		t.Fatalf("status = %v, converged = %v; want converged", sol1.Status, sol1.Converged)
	}
	checkRowTotals(t, p, sol1)

	snapshot := append([]float64(nil), sol1.X...)
	if _, err := s.Submit(context.Background(), testProblem(t, 12, 9, 1.1, 2), nil); err != nil {
		t.Fatal(err)
	}
	for k := range snapshot {
		if snapshot[k] != sol1.X[k] {
			t.Fatalf("result aliases pooled memory: X[%d] changed %g -> %g", k, snapshot[k], sol1.X[k])
		}
	}

	st := s.Stats()
	if st.Submitted != 2 || st.Completed != 2 {
		t.Fatalf("stats submitted/completed = %d/%d, want 2/2", st.Submitted, st.Completed)
	}
	if st.ShapeHits != 1 || st.ShapeMisses != 1 {
		t.Fatalf("stats hits/misses = %d/%d, want 1/1 (same shape twice)", st.ShapeHits, st.ShapeMisses)
	}
	if st.Solve.Count != 2 || st.Solver.Iterations == 0 {
		t.Fatalf("latency count %d / solver iterations %d; want 2 / >0", st.Solve.Count, st.Solver.Iterations)
	}
}

// TestConcurrentMixedShapes hammers the server from many submitters over
// three shapes and requires every result correct, shape pools bounded, and
// a warm hit rate once the pools are populated. Run under -race via
// `make serve-race`.
func TestConcurrentMixedShapes(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, err := newServer(Config{MaxInFlight: 4, MaxQueue: 64, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}

	shapes := []*sea.Problem{
		testProblem(t, 20, 20, 1.2, 3),
		testProblem(t, 35, 15, 1.3, 4),
		testProblem(t, 10, 40, 1.4, 5),
	}
	const submitters, perSubmitter = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, submitters*perSubmitter)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var out sea.Solution
			for i := 0; i < perSubmitter; i++ {
				p := shapes[(g+i)%len(shapes)]
				filled, err := s.SubmitInto(context.Background(), p, nil, &out)
				if err != nil {
					errs <- err
					return
				}
				if !filled || !out.Converged {
					t.Errorf("submitter %d request %d: filled=%v converged=%v", g, i, filled, out.Converged)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if want := uint64(submitters * perSubmitter); st.Completed != want {
		t.Fatalf("completed %d, want %d", st.Completed, want)
	}
	if st.ShapeHits == 0 {
		t.Fatal("no shape-pool hits across repeated same-shape requests")
	}
	if len(st.Shapes) != len(shapes) {
		t.Fatalf("%d live shape pools, want %d", len(st.Shapes), len(shapes))
	}
	for _, sh := range st.Shapes {
		if sh.Arenas > 4 {
			t.Fatalf("shape %dx%d holds %d arenas, more than MaxInFlight=4", sh.M, sh.N, sh.Arenas)
		}
	}
	if st.PeakInFlight > 4 {
		t.Fatalf("peak in-flight %d exceeded the limit 4", st.PeakInFlight)
	}

	s.Close()
}

// workSum is a trace observer that sums one request's reported work.
type workSum struct{ equil, ops int64 }

func (w *workSum) ObserveIteration(e sea.TraceEvent) {
	w.equil += e.Equilibrations
	w.ops += e.Ops
}

// TestSubmitTracedCountsOwnWork: each solve tallies its own work, so a
// per-request trace reports exactly the work of its request however many
// other solves run beside it, and the server's counters are the sum over
// requests.
func TestSubmitTracedCountsOwnWork(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 4, MaxQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := testProblem(t, 80, 60, 1.3, 21)
	ctx := context.Background()
	var alone workSum
	if _, err := s.SubmitTraced(ctx, p, nil, &alone); err != nil {
		t.Fatal(err)
	}
	if alone.equil == 0 || alone.ops == 0 {
		t.Fatalf("solo trace reported no work: %+v", alone)
	}

	const requests = 8
	sums := make([]workSum, requests)
	var wg sync.WaitGroup
	for r := range sums {
		wg.Add(1)
		go func(w *workSum) {
			defer wg.Done()
			if _, err := s.SubmitTraced(ctx, p, nil, w); err != nil {
				t.Error(err)
			}
		}(&sums[r])
	}
	wg.Wait()
	for r, w := range sums {
		if w != alone {
			t.Errorf("request %d traced %d equilibrations / %d ops, alone %d / %d", r, w.equil, w.ops, alone.equil, alone.ops)
		}
	}
	st := s.Stats().Solver
	if st.Equilibrations != (requests+1)*alone.equil || st.Ops != (requests+1)*alone.ops {
		t.Errorf("server counters %d equilibrations / %d ops, want %d requests × %d / %d",
			st.Equilibrations, st.Ops, requests+1, alone.equil, alone.ops)
	}
}

// TestSaturationRejects: with one in-flight slot and a queue of one, a
// third concurrent request is rejected immediately with sea.ErrSaturated.
func TestSaturationRejects(t *testing.T) {
	block := make(chan struct{})
	var startOnce sync.Once
	started := make(chan struct{})
	cfg := Config{
		MaxInFlight: 1,
		MaxQueue:    1,
		Trace: sea.TraceFunc(func(ev sea.TraceEvent) {
			startOnce.Do(func() { close(started) })
			<-block
		}),
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := testProblem(t, 15, 15, 1.25, 6)
	var wg sync.WaitGroup
	results := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); _, results[0] = s.Submit(context.Background(), p, nil) }()
	<-started // first request is solving (and will hold its slot until released)

	wg.Add(1)
	go func() { defer wg.Done(); _, results[1] = s.Submit(context.Background(), p, nil) }()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full, slot busy: the third request must bounce.
	if _, err := s.Submit(context.Background(), p, nil); !errors.Is(err, sea.ErrSaturated) {
		t.Fatalf("err = %v, want sea.ErrSaturated", err)
	}

	close(block)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Completed != 2 {
		t.Fatalf("rejected/completed = %d/%d, want 1/2", st.Rejected, st.Completed)
	}
	if st.PeakQueued < 1 {
		t.Fatalf("peak queued = %d, want >= 1", st.PeakQueued)
	}
	if st.QueueWait.Count != 1 {
		t.Fatalf("queue-wait observations = %d, want 1", st.QueueWait.Count)
	}
}

// TestQueuedRequestHonorsContext: a request waiting in the queue leaves it
// when its context is cancelled.
func TestQueuedRequestHonorsContext(t *testing.T) {
	block := make(chan struct{})
	var startOnce sync.Once
	started := make(chan struct{})
	s, err := newServer(Config{
		MaxInFlight: 1,
		MaxQueue:    4,
		Trace: sea.TraceFunc(func(sea.TraceEvent) {
			startOnce.Do(func() { close(started) })
			<-block
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := testProblem(t, 15, 15, 1.25, 7)
	done := make(chan error, 1)
	go func() { _, err := s.Submit(context.Background(), p, nil); done <- err }()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() { _, err := s.Submit(ctx, p, nil); queued <- err }()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request err = %v, want context.Canceled", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRequestTimeoutCancelsSolve: the per-request deadline cuts an
// unconverging solve short with StatusCancelled and the last iterate.
func TestRequestTimeoutCancelsSolve(t *testing.T) {
	o := sea.DefaultOptions()
	o.Epsilon = 1e-300 // unreachable: only the deadline can end the solve
	o.Criterion = sea.DualGradient
	o.MaxIterations = 1 << 30
	s, err := newServer(Config{MaxInFlight: 1, RequestTimeout: 20 * time.Millisecond, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := testProblem(t, 40, 40, 1.3, 8)
	sol, err := s.Submit(context.Background(), p, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if sol == nil || sol.Status != sea.StatusCancelled {
		t.Fatalf("sol = %+v, want last iterate with StatusCancelled", sol)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("failed = %d, want 1", st.Failed)
	}
}

// TestSubmitAllMixedOutcomes: a batch mixes valid problems and a structurally
// invalid one; results are index-aligned with per-item statuses and errors.
func TestSubmitAllMixedOutcomes(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	batch := []*sea.Problem{
		testProblem(t, 8, 8, 1.2, 9),
		{}, // no representation: rejected before admission
		testProblem(t, 6, 10, 1.3, 10),
	}
	results := s.SubmitAll(context.Background(), batch, nil)
	if len(results) != len(batch) {
		t.Fatalf("%d results for %d problems", len(results), len(batch))
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Status != sea.StatusConverged {
			t.Fatalf("result %d: err=%v status=%v, want converged", i, results[i].Err, results[i].Status)
		}
		checkRowTotals(t, batch[i], results[i].Solution)
	}
	if !errors.Is(results[1].Err, sea.ErrInvalidProblem) {
		t.Fatalf("result 1 err = %v, want sea.ErrInvalidProblem", results[1].Err)
	}
	if results[1].Solution != nil || results[1].Status != sea.StatusUnknown {
		t.Fatalf("result 1 = %+v, want no solution", results[1])
	}
}

// TestShapeEviction: with MaxShapes = 1, a second shape evicts the first
// pool and its idle arenas; the server keeps serving both shapes correctly.
func TestShapeEviction(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 1, MaxShapes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a := testProblem(t, 9, 9, 1.2, 11)
	b := testProblem(t, 7, 13, 1.3, 12)
	for _, p := range []*sea.Problem{a, b, a, b} {
		if _, err := s.Submit(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Shapes) != 1 {
		t.Fatalf("%d live shape pools, want 1 (MaxShapes)", len(st.Shapes))
	}
	if st.ArenasEvicted == 0 {
		t.Fatal("no arenas evicted despite shape churn beyond MaxShapes")
	}
	if st.Completed != 4 {
		t.Fatalf("completed = %d, want 4", st.Completed)
	}
}

// TestCloseRejectsAndDrains: Close is idempotent, waits for in-flight work,
// and later submissions fail with ErrClosed.
func TestCloseRejectsAndDrains(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, err := newServer(Config{MaxInFlight: 2, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := testProblem(t, 10, 10, 1.2, 13)
	if _, err := s.Submit(context.Background(), p, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit(context.Background(), p, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestPrewarmFillsPool: Prewarm provisions the full per-shape free-list
// deterministically, so the first real request is already a hit.
func TestPrewarmFillsPool(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 1, ArenasPerShape: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := testProblem(t, 11, 7, 1.2, 15)
	if err := s.Prewarm(context.Background(), p, 0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Shapes) != 1 || st.Shapes[0].Idle != 3 || st.Shapes[0].Arenas != 3 {
		t.Fatalf("after Prewarm: shapes = %+v, want one pool with 3 idle arenas", st.Shapes)
	}
	if st.Submitted != 0 {
		t.Fatalf("Prewarm counted as %d submissions, want 0", st.Submitted)
	}
	if _, err := s.Submit(context.Background(), p, nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ShapeHits != 1 {
		t.Fatalf("first post-Prewarm request: hits = %d, want 1", st.ShapeHits)
	}

	if err := s.Prewarm(context.Background(), &sea.Problem{}, 1); !errors.Is(err, sea.ErrInvalidProblem) {
		t.Fatalf("Prewarm on an empty problem: err = %v, want sea.ErrInvalidProblem", err)
	}
}

// TestUnknownSolverConfig: NewSharded surfaces the facade's typed error.
func TestUnknownSolverConfig(t *testing.T) {
	if _, err := newServer(Config{Solver: "nope"}); !errors.Is(err, sea.ErrUnknownSolver) {
		t.Fatalf("err = %v, want sea.ErrUnknownSolver", err)
	}
}

// TestSteadyStateHitAllocations pins the serving promise: once a shape's
// pool is warm, a SubmitInto request costs at most 2 heap allocations.
func TestSteadyStateHitAllocations(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := testProblem(t, 30, 30, 1.25, 14)
	ctx := context.Background()
	var out sea.Solution
	for i := 0; i < 3; i++ { // warm the pool and the kernel warm starts
		if _, err := s.SubmitInto(ctx, p, nil, &out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.SubmitInto(ctx, p, nil, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state hit path allocates %.1f/op, want <= 2", allocs)
	}
}
