// Package serve multiplexes concurrent solve requests over pools of
// reusable solver state — the serving layer the facade's arenas were built
// for. One Server owns:
//
//   - a registry solver (any name from pkg/sea — "sea" by default);
//   - shape-keyed pools of arenas: requests for the same problem shape
//     reuse warmed, preallocated solver state (near-zero allocations per
//     request on a pool hit), pools are created on demand, bounded per
//     shape, and the least-recently-used shape is evicted when the shape
//     count exceeds its cap;
//   - a fleet of persistent worker pools (internal/parallel.PoolSet), one
//     borrowed per in-flight solve, so parallel phases never pay goroutine
//     spawning and never share a (single-dispatcher) pool across solves;
//   - admission control: at most MaxInFlight solves run at once, at most
//     MaxQueue requests wait, and further requests are rejected immediately
//     with an error wrapping sea.ErrSaturated;
//   - instrumentation: queue depth and in-flight gauges with high-water
//     marks, per-shape hit/miss/eviction counts, queue-wait and solve
//     latency aggregates, and the solvers' own iteration counters, all
//     exposed as a Stats snapshot. A sea.Trace observer attached to the
//     Config is synchronized and receives every in-flight solve's events.
//
// The request API is Submit (one problem, detached result), SubmitInto
// (caller-owned result memory — the steady-state path for hot serving
// loops), and SubmitAll (a batch fanned out over the same admission gates).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sea/internal/metrics"
	"sea/internal/parallel"
	"sea/internal/trace"
	"sea/pkg/sea"
)

// ErrClosed is returned by Submit variants after Close.
var ErrClosed = errors.New("serve: server closed")

// Config parameterizes a Server. The zero value of every field selects a
// sensible default, so Config{} is a working single-solver configuration.
type Config struct {
	// Solver is the registry name every request is routed to ("sea" when
	// empty). Arena reuse accelerates the core solvers ("sea",
	// "sea-general"); other registry solvers serve correctly but cold.
	Solver string
	// MaxInFlight caps concurrently running solves (default GOMAXPROCS).
	MaxInFlight int
	// MaxQueue caps requests waiting for an in-flight slot (default
	// 4×MaxInFlight). A request arriving with the queue full is rejected
	// with sea.ErrSaturated.
	MaxQueue int
	// MaxShapes caps the number of distinct shape pools kept warm; the
	// least-recently-used pool is evicted beyond it (default 8).
	MaxShapes int
	// ArenasPerShape caps each shape's idle free-list (default MaxInFlight,
	// the most a single shape can have checked out at once).
	ArenasPerShape int
	// Procs is the worker count of each borrowed scheduling pool — the
	// parallelism of one solve's row/column phases (default 1).
	Procs int
	// RequestTimeout, when positive, bounds each request's solve with a
	// per-request deadline (tightening any caller deadline).
	RequestTimeout time.Duration
	// Options is the base solve-options template (nil = sea.DefaultOptions).
	// Its Arena and Runner fields are owned by the server and overwritten.
	Options *sea.Options
	// Trace, when set, observes every iteration of every in-flight solve.
	// It is wrapped with a synchronizing adapter, so any observer works.
	Trace sea.Trace
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.Solver == "" {
		c.Solver = "sea"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.MaxShapes <= 0 {
		c.MaxShapes = 8
	}
	if c.ArenasPerShape <= 0 {
		c.ArenasPerShape = c.MaxInFlight
	}
	if c.Procs <= 0 {
		c.Procs = 1
	}
	return c
}

// Server is a concurrent solve service. All methods are safe for concurrent
// use. See the package documentation for the architecture.
type Server struct {
	cfg    Config
	solver sea.Solver
	base   sea.Options // resolved template each entry's options copy

	slots chan struct{} // in-flight tokens (send = acquire)
	done  chan struct{} // closed by Close; unblocks queued waiters
	pools *parallel.PoolSet

	mu       sync.Mutex
	shapes   map[shapeKey]*shapePool
	sessions map[*Session]struct{} // live sequence sessions, for Close
	tick     uint64
	closed   bool

	submitted atomic.Uint64
	completed atomic.Uint64 // finished with err == nil
	failed    atomic.Uint64 // finished with err != nil (incl. cancellation)
	rejected  atomic.Uint64 // turned away by admission control
	evictions atomic.Uint64 // arenas closed by LRU / free-list bounds
	hits      atomic.Uint64 // checkouts served from a warm free-list
	misses    atomic.Uint64 // checkouts that built a cold arena

	inFlight metrics.Gauge
	queued   metrics.Gauge
	waitLat  metrics.Latency
	solveLat metrics.Latency
	counters metrics.Counters // aggregated solver instrumentation
}

// NewServer validates cfg, resolves the solver name, and starts the worker
// pools. The returned server must be Closed to release them.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	solver, err := sea.Get(cfg.Solver)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		solver: solver,
		slots:  make(chan struct{}, cfg.MaxInFlight),
		done:   make(chan struct{}),
		pools:  parallel.NewPoolSet(cfg.MaxInFlight, cfg.Procs),
		shapes: make(map[shapeKey]*shapePool),
	}
	s.sessions = make(map[*Session]struct{})
	if cfg.Options != nil {
		s.base = *cfg.Options
	} else {
		s.base = *sea.DefaultOptions()
	}
	s.base.Procs = cfg.Procs
	s.base.Arena = nil
	s.base.Runner = nil
	// One shared counter set sums the events of every solve; its atomics
	// make it safe to attach unsynchronized.
	s.base.Trace = trace.Multi(&s.counters, trace.Synchronized(cfg.Trace))
	return s, nil
}

// Submit solves one problem, returning a detached Solution (no aliasing of
// pooled memory). opts may be nil, meaning the server's configured options —
// the recommended, allocation-free-admission path; a non-nil opts is cloned
// for the request and its Arena/Runner fields are overridden by the server.
//
// Submit blocks while the request is queued (bounded by MaxQueue) and while
// it solves; it returns early with sea.ErrSaturated when the queue is full,
// ErrClosed after Close, or ctx.Err() when the caller's context ends first.
// On iteration-limit exhaustion the error wraps sea.ErrNotConverged and the
// returned Solution is the best iterate, per the facade's contract.
func (s *Server) Submit(ctx context.Context, p *sea.Problem, opts *sea.Options) (*sea.Solution, error) {
	var out sea.Solution
	filled, err := s.submit(ctx, p, opts, &out, nil)
	if !filled {
		return nil, err
	}
	return &out, err
}

// SubmitTraced is Submit with a per-request trace observer layered onto the
// request's options: the request solves exactly as a plain Submit with the
// same opts (nil = the server's template, arena, runner), and obs
// additionally receives its iteration events. The transport's streamed-trace
// jobs ride this path. obs is synchronized by the server; a nil obs degrades
// to Submit.
func (s *Server) SubmitTraced(ctx context.Context, p *sea.Problem, opts *sea.Options, obs sea.Trace) (*sea.Solution, error) {
	var out sea.Solution
	filled, err := s.submit(ctx, p, opts, &out, obs)
	if !filled {
		return nil, err
	}
	return &out, err
}

// An Override replaces one field of the server's option template for a
// single request. Transports build the list from whichever request
// parameters are actually present, so an absent parameter never perturbs
// the template.
type Override func(*sea.Options)

// WithPrecond overrides the preconditioning stage for one request.
func WithPrecond(pc sea.Precond) Override {
	return func(o *sea.Options) { o.Precondition = pc }
}

// WithObjective overrides the objective family for one request — the
// serving-layer face of sea.Options.Objective.
func WithObjective(obj sea.Objective) Override {
	return func(o *sea.Options) { o.Objective = obj }
}

// RequestOptions resolves per-request overrides into the opts argument of
// the Submit variants: it returns nil when every override matches the
// server's configured template (the zero-overhead path — the request solves
// on the prebuilt per-arena options), and otherwise a detached clone of the
// template with the overridden fields replaced. The clone's Arena, Runner
// and Trace are zeroed: submit re-fills all three per request, and handing
// back the template's trace would count every event twice. The returned options are the caller's to further adjust before
// submitting.
func (s *Server) RequestOptions(overrides ...Override) *sea.Options {
	if len(overrides) == 0 {
		return nil
	}
	o := s.base
	for _, ov := range overrides {
		if ov != nil {
			ov(&o)
		}
	}
	if o.Precondition == s.base.Precondition && o.Objective == s.base.Objective {
		return nil
	}
	o.Arena = nil
	o.Runner = nil
	o.Trace = nil
	o.Mu0 = nil
	return &o
}

// SubmitInto is Submit draining the result into caller-owned memory: into's
// slice capacity is reused when it suffices, so a serving loop that reuses
// one Solution per worker reaches steady-state hit-path allocations of
// ~1 alloc per request (the solver's internal options clone). It reports
// whether into was filled — true whenever a solve produced an iterate, even
// alongside a non-nil error (non-convergence, cancellation mid-solve).
func (s *Server) SubmitInto(ctx context.Context, p *sea.Problem, opts *sea.Options, into *sea.Solution) (bool, error) {
	if into == nil {
		return false, fmt.Errorf("serve: SubmitInto requires a non-nil destination")
	}
	return s.submit(ctx, p, opts, into, nil)
}

// Result is one problem's outcome in a SubmitAll batch.
type Result struct {
	// Solution is the detached solve result; nil when the request was
	// rejected or failed before producing an iterate.
	Solution *sea.Solution
	// Status is the explicit outcome: the Solution's status when one
	// exists, StatusSaturated for admission rejections, StatusCancelled for
	// context expiry before any iterate.
	Status sea.Status
	// Err is the request's error, if any (wraps the sea sentinel errors).
	Err error
}

// SubmitAll solves a batch, fanning the problems out over the server's
// admission gates with at most MaxInFlight submitting goroutines, and
// returns one Result per problem, index-aligned. Individual problems can
// fail or be rejected independently; the batch itself never fails.
func (s *Server) SubmitAll(ctx context.Context, problems []*sea.Problem, opts *sea.Options) []Result {
	results := make([]Result, len(problems))
	gate := make(chan struct{}, s.cfg.MaxInFlight)
	var wg sync.WaitGroup
	for i, p := range problems {
		gate <- struct{}{}
		wg.Add(1)
		go func(i int, p *sea.Problem) {
			defer func() { <-gate; wg.Done() }()
			sol, err := s.Submit(ctx, p, opts)
			results[i] = Result{Solution: sol, Status: resultStatus(sol, err), Err: err}
		}(i, p)
	}
	wg.Wait()
	return results
}

// resultStatus classifies a (solution, error) pair for a batch Result.
func resultStatus(sol *sea.Solution, err error) sea.Status {
	if sol != nil && sol.Status != sea.StatusUnknown {
		return sol.Status
	}
	switch {
	case errors.Is(err, sea.ErrSaturated):
		return sea.StatusSaturated
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return sea.StatusCancelled
	default:
		return sea.StatusUnknown
	}
}

// admit passes the server's admission control: an in-flight slot
// immediately, or a bounded wait in the queue. The queue bound is enforced
// optimistically (increment, test, undo), so a burst at the boundary is
// rejected conservatively. On success the caller holds an in-flight slot
// and must call release exactly once; on failure the rejection is already
// counted.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
	default:
		if q := s.queued.Inc(); q > int64(s.cfg.MaxQueue) {
			s.queued.Dec()
			s.rejected.Add(1)
			return nil, fmt.Errorf("%w: %d solves in flight, %d queued (limits %d/%d)",
				sea.ErrSaturated, s.inFlight.Level(), q-1, s.cfg.MaxInFlight, s.cfg.MaxQueue)
		}
		waitStart := time.Now()
		select {
		case s.slots <- struct{}{}:
			s.queued.Dec()
			s.waitLat.Observe(time.Since(waitStart))
		case <-ctx.Done():
			s.queued.Dec()
			s.rejected.Add(1)
			return nil, ctx.Err()
		case <-s.done:
			s.queued.Dec()
			s.rejected.Add(1)
			return nil, ErrClosed
		}
	}
	if s.isClosed() {
		<-s.slots
		s.rejected.Add(1)
		return nil, ErrClosed
	}
	s.inFlight.Inc()
	return func() {
		s.inFlight.Dec()
		<-s.slots
	}, nil
}

// submit is the request path: admission, checkout, solve, copy-out,
// checkin. obs, when non-nil, is an extra per-request trace observer
// layered onto whichever options the request resolves to.
func (s *Server) submit(ctx context.Context, p *sea.Problem, opts *sea.Options, into *sea.Solution, obs sea.Trace) (filled bool, err error) {
	key, err := requestKey(p)
	if err != nil {
		return false, err
	}
	if s.isClosed() {
		return false, ErrClosed
	}
	s.submitted.Add(1)

	release, err := s.admit(ctx)
	if err != nil {
		return false, err
	}
	defer release()

	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	e := s.checkout(key)
	pool := s.pools.Get()
	runOpts := &e.opts
	if opts != nil {
		o := *opts
		o.Arena = e.arena
		o.Procs = s.cfg.Procs
		if o.Trace == nil {
			o.Trace = s.base.Trace
		} else {
			o.Trace = sea.MultiTrace(trace.Synchronized(o.Trace), s.base.Trace)
		}
		runOpts = &o
	}
	if obs != nil {
		// Layer the per-request observer without disturbing the entry's
		// prebuilt options (they are reused by the next checkout).
		o := *runOpts
		o.Trace = sea.MultiTrace(trace.Synchronized(obs), o.Trace)
		runOpts = &o
	}
	runOpts.Runner = pool

	start := time.Now()
	sol, err := s.solver.Solve(ctx, p, runOpts)
	s.solveLat.Observe(time.Since(start))
	if sol != nil {
		// The solution aliases arena memory that the next checkout may
		// overwrite — detach it before the entry goes back to the pool.
		sol.CopyInto(into)
		filled = true
	}
	s.pools.Put(pool)
	s.checkin(e)

	if err != nil {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	return filled, err
}

// Prewarm provisions the shape pool for p with up to n warmed arenas (n <= 0
// or n > ArenasPerShape means ArenasPerShape), running one solve per arena so
// the kernel warm-start state is populated before live traffic arrives. It is
// the deterministic way to reach the all-hits steady state: concurrent
// warm-up traffic only grows a pool as far as the scheduler actually
// overlaps requests. Prewarm solves bypass admission control and are not
// counted as submissions (the pool's miss counters do record the cold
// builds). It returns the first solve error, keeping any arenas already
// warmed.
func (s *Server) Prewarm(ctx context.Context, p *sea.Problem, n int) error {
	key, err := requestKey(p)
	if err != nil {
		return err
	}
	if s.isClosed() {
		return ErrClosed
	}
	if n <= 0 || n > s.cfg.ArenasPerShape {
		n = s.cfg.ArenasPerShape
	}
	// Hold all n entries before returning any: checkout pops the free-list,
	// so releasing early would re-warm the same arena n times.
	entries := make([]*entry, 0, n)
	defer func() {
		for _, e := range entries {
			s.checkin(e)
		}
	}()
	for i := 0; i < n; i++ {
		e := s.checkout(key)
		entries = append(entries, e)
		pool := s.pools.Get()
		e.opts.Runner = pool
		_, err := s.solver.Solve(ctx, p, &e.opts)
		s.pools.Put(pool)
		if err != nil {
			return err
		}
	}
	return nil
}

// requestKey derives the shape-pool key, rejecting structurally unusable
// problems before they occupy a queue slot. The values are left to the
// solver: with "sea", core.SolveDiagonal validates them in one pass, as it
// does for a direct sea.Solve call.
func requestKey(p *sea.Problem) (shapeKey, error) {
	if p == nil || (p.Diagonal == nil && p.General == nil) {
		return shapeKey{}, fmt.Errorf("%w: request carries no problem representation", sea.ErrInvalidProblem)
	}
	m, n := p.Size()
	if m <= 0 || n <= 0 {
		return shapeKey{}, fmt.Errorf("%w: request has dimensions %d×%d", sea.ErrInvalidProblem, m, n)
	}
	key := shapeKey{m: m, n: n, general: p.General != nil}
	if p.Diagonal != nil && p.Diagonal.Pattern != nil {
		key.csr = true
		key.nnz = p.Diagonal.Pattern.Nnz()
	}
	return key, nil
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close rejects further submissions, waits for in-flight solves to drain,
// and releases every pooled arena and worker pool. It is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done) // queued waiters leave without consuming a slot token

	// Hold every in-flight slot: when all MaxInFlight tokens are ours, no
	// solve is running and none can start (submit re-checks closed after
	// acquiring). Queued waiters may interleave; they observe closed and
	// release their token, which we then re-acquire.
	for i := 0; i < s.cfg.MaxInFlight; i++ {
		s.slots <- struct{}{}
	}

	s.mu.Lock()
	for key, sp := range s.shapes {
		for _, e := range sp.free {
			e.arena.Close()
		}
		sp.free = nil
		delete(s.shapes, key)
	}
	sessions := make([]*Session, 0, len(s.sessions))
	for ses := range s.sessions {
		sessions = append(sessions, ses)
	}
	s.mu.Unlock()
	// With every slot held no session solve is in flight, so closing their
	// chained arenas here cannot race a solve.
	for _, ses := range sessions {
		ses.Close()
	}
	s.pools.Close()
}
