// Package serve multiplexes concurrent solve requests over pools of
// reusable solver state — the serving layer the facade's arenas were built
// for. A ShardedServer routes each request by problem shape, with
// consistent hashing, to one of its shards, so every shape lands on one
// shard. Each shard owns:
//
//   - a registry solver (any name from pkg/sea — "sea" by default);
//   - shape-keyed pools of arenas: requests for the same problem shape
//     reuse warmed, preallocated solver state (near-zero allocations per
//     request on a pool hit), pools are created on demand, bounded per
//     shape, and the least-recently-used shape is evicted when the shape
//     count exceeds its cap;
//   - MaxInFlight persistent worker pools (internal/parallel.Pool), which
//     are also its in-flight tokens: admission hands a request one pool and
//     the request hands it back when its solve ends, so parallel phases
//     never pay goroutine spawning and never share a (single-dispatcher)
//     pool across solves;
//   - admission control: at most MaxInFlight solves run at once, at most
//     MaxQueue requests wait, and further requests are rejected immediately
//     with an error wrapping sea.ErrSaturated;
//   - instrumentation: queue depth and in-flight gauges with high-water
//     marks, per-shape hit/miss/eviction counts, queue-wait and solve
//     latency aggregates, and the solvers' own iteration counters, all
//     exposed as a Stats snapshot. A sea.Trace observer attached to the
//     Config is synchronized and receives every in-flight solve's events.
//
// Above the shards sits an optional per-tenant fair admission gate (see
// ShardedConfig.TenantMaxInFlight).
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

// Config parameterizes each shard of a ShardedServer. The zero value of
// every field selects a sensible default, so Config{} is a working
// single-solver configuration.
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
	// Procs is the worker count of each in-flight slot's worker pool — the
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

// shard is one independent slice of a ShardedServer: its own arena pools,
// worker pools, admission control and instrumentation. All methods are safe
// for concurrent use.
type shard struct {
	cfg    Config
	solver sea.Solver
	base   sea.Options // resolved template each entry's options copy

	// pools holds the idle worker pools. A pool is the in-flight token:
	// admit takes one and release returns it, so at most MaxInFlight solves
	// run at once and no two of them drive the same pool.
	pools chan *parallel.Pool
	done  <-chan struct{} // the server's; closed by Close

	mu       sync.Mutex
	shapes   map[shapeKey]*shapePool
	sessions map[*Session]struct{} // live sequence sessions, for close
	tick     uint64

	submitted atomic.Uint64
	completed atomic.Uint64 // finished with err == nil
	failed    atomic.Uint64 // finished with err != nil (incl. cancellation)
	rejected  atomic.Uint64 // turned away by admission control
	evictions atomic.Uint64 // arenas closed by LRU / free-list bounds
	hits      atomic.Uint64 // checkouts served from a warm free-list
	misses    atomic.Uint64 // checkouts that built a cold arena

	inFlight metrics.Gauge
	queued   metrics.Gauge
	server   *levels // the server's levels, moved with the two above
	waitLat  metrics.Latency
	solveLat metrics.Latency
	counters metrics.Counters // aggregated solver instrumentation
}

// newShard starts a shard's MaxInFlight worker pools. cfg has its defaults
// resolved, solver is the registry's answer for cfg.Solver, and server is
// the server's admission levels.
func newShard(cfg Config, solver sea.Solver, done <-chan struct{}, server *levels) *shard {
	s := &shard{
		cfg:      cfg,
		solver:   solver,
		pools:    make(chan *parallel.Pool, cfg.MaxInFlight),
		done:     done,
		server:   server,
		shapes:   make(map[shapeKey]*shapePool),
		sessions: make(map[*Session]struct{}),
	}
	for range cfg.MaxInFlight {
		s.pools <- parallel.NewPool(cfg.Procs)
	}
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
	return s
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

// requestOptions is ShardedServer.RequestOptions for one shard's template.
// The clone's Arena, Runner and Trace are zeroed: submit re-fills all three
// per request, and handing back the template's trace would count every
// event twice.
func (s *shard) requestOptions(overrides []Override) *sea.Options {
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

// isClosed reports whether done has been closed.
func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// admit passes the shard's admission control and hands out a worker pool:
// an idle one immediately, or one after a bounded wait in the queue. The
// queue bound is enforced optimistically (increment, test, undo), so a
// burst at the boundary is rejected conservatively. On success the caller
// runs its solve on the pool and must hand it back with release exactly
// once; on failure the rejection is already counted.
func (s *shard) admit(ctx context.Context) (*parallel.Pool, error) {
	var pool *parallel.Pool
	select {
	case pool = <-s.pools:
	default:
		if q := s.enqueue(); q > int64(s.cfg.MaxQueue) {
			s.dequeue()
			s.rejected.Add(1)
			return nil, fmt.Errorf("%w: %d solves in flight, %d queued (limits %d/%d)",
				sea.ErrSaturated, s.inFlight.Level(), q-1, s.cfg.MaxInFlight, s.cfg.MaxQueue)
		}
		waitStart := time.Now()
		select {
		case pool = <-s.pools:
			s.dequeue()
			s.waitLat.Observe(time.Since(waitStart))
		case <-ctx.Done():
			s.dequeue()
			s.rejected.Add(1)
			return nil, ctx.Err()
		case <-s.done:
			s.dequeue()
			s.rejected.Add(1)
			return nil, ErrClosed
		}
	}
	// Close takes every pool back to wait out the running solves; a pool
	// received after it began must go straight back to it.
	if isClosed(s.done) {
		s.pools <- pool
		s.rejected.Add(1)
		return nil, ErrClosed
	}
	s.inFlight.Inc()
	s.server.inFlight.Inc()
	return pool, nil
}

// release hands an admitted request's worker pool back.
func (s *shard) release(pool *parallel.Pool) {
	s.inFlight.Dec()
	s.server.inFlight.Dec()
	s.pools <- pool
}

// levels are a server's admission gauges: solves in flight and requests
// queued for a worker pool.
type levels struct{ inFlight, queued metrics.Gauge }

// enqueue raises the shard's queued level and the server's, and returns
// the shard's.
func (s *shard) enqueue() int64 {
	s.server.queued.Inc()
	return s.queued.Inc()
}

// dequeue lowers the shard's queued level and the server's.
func (s *shard) dequeue() {
	s.queued.Dec()
	s.server.queued.Dec()
}

// requestContext applies the configured per-request deadline to ctx.
func (s *shard) requestContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return ctx, func() {}
}

// submit is the request path once the server has keyed and routed p:
// admission, checkout, solve, copy-out, checkin. obs, when non-nil, is an
// extra per-request trace observer layered onto whichever options the
// request resolves to.
func (s *shard) submit(ctx context.Context, key shapeKey, p *sea.Problem, opts *sea.Options, into *sea.Solution, obs sea.Trace) (filled bool, err error) {
	s.submitted.Add(1)
	pool, err := s.admit(ctx)
	if err != nil {
		return false, err
	}
	// The entry is checked in before this deferred release hands the pool
	// back, so once close holds every pool each arena is idle.
	defer s.release(pool)
	ctx, cancel := s.requestContext(ctx)
	defer cancel()

	e := s.checkout(key)
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
	s.checkin(e)

	if err != nil {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	return filled, err
}

// prewarm is ShardedServer.Prewarm on the shard that owns key. It holds one
// worker pool for all n solves.
func (s *shard) prewarm(ctx context.Context, key shapeKey, p *sea.Problem, n int) error {
	if n <= 0 || n > s.cfg.ArenasPerShape {
		n = s.cfg.ArenasPerShape
	}
	pool, err := s.admit(ctx)
	if err != nil {
		return err
	}
	defer s.release(pool)
	// Hold all n entries before returning any: checkout pops the free-list,
	// so releasing early would re-warm the same arena n times.
	entries := make([]*entry, 0, n)
	defer func() {
		for _, e := range entries {
			s.checkin(e)
		}
	}()
	for range n {
		e := s.checkout(key)
		entries = append(entries, e)
		e.opts.Runner = pool
		if _, err := s.solver.Solve(ctx, p, &e.opts); err != nil {
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

// close drains the shard once the server's done channel is closed: it takes
// back every worker pool, which waits out the running solves (each checks
// its arena in before it hands its pool back) and leaves none able to
// start, then closes the idle arenas, the open sessions and the pools.
func (s *shard) close() {
	pools := make([]*parallel.Pool, s.cfg.MaxInFlight)
	for i := range pools {
		pools[i] = <-s.pools
	}
	s.mu.Lock()
	for key, sp := range s.shapes {
		for _, e := range sp.free {
			e.arena.Close()
		}
		delete(s.shapes, key)
	}
	sessions := make([]*Session, 0, len(s.sessions))
	for ses := range s.sessions {
		sessions = append(sessions, ses)
	}
	s.mu.Unlock()
	// With every pool held no session solve is in flight, so closing their
	// chained arenas here cannot race a solve.
	for _, ses := range sessions {
		ses.Close()
	}
	for _, pool := range pools {
		pool.Close()
	}
}
