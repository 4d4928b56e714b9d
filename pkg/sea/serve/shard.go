package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"sea/pkg/sea"
)

// ShardedConfig parameterizes a ShardedServer: N independent shards plus
// the routing ring and the per-tenant admission gate layered above them.
type ShardedConfig struct {
	// Shards is the shard count (default 1). Requests are routed by
	// problem shape with consistent hashing, so every shape lands on one
	// shard and that shard's arena pools stay hot for it.
	Shards int
	// TenantMaxInFlight, when positive, caps how many requests a single
	// tenant (see WithTenant) may have admitted at once across all shards.
	// Tenants at their cap wait in a per-tenant FIFO bounded by
	// TenantMaxQueue; a full queue rejects with ErrTenantQuota (wrapping
	// sea.ErrSaturated). Releases wake waiting tenants in round-robin
	// rotation — fair queueing across tenants, FIFO within one.
	TenantMaxInFlight int
	// TenantMaxQueue bounds each tenant's waiting queue (default
	// TenantMaxInFlight when the gate is enabled).
	TenantMaxQueue int
	// Server configures every shard (see Config). Each shard gets its own
	// arena pools, worker pools, and admission control with these limits,
	// so the process-wide in-flight bound is Shards×MaxInFlight.
	Server Config
}

// ShardedServer is the concurrent solve service: it consistent-hash routes
// solve requests by problem shape across N shards. Same-shape requests
// always land on the same shard, so each shard's LRU arena pools stay warm
// for its share of the shape space and the shards never contend on one
// lock or queue. All methods are safe for concurrent use. See the package
// documentation for the architecture.
type ShardedServer struct {
	cfg    ShardedConfig // Server carries its resolved defaults
	shards []*shard
	ring   hashRing
	gate   *tenantGate // nil when tenant quotas are disabled
	sesSeq atomic.Uint64
	// levels are the server-wide admission levels, which every shard moves
	// along with its own.
	levels levels

	done      chan struct{} // closed by Close; unblocks every waiter
	closeOnce sync.Once
}

// NewSharded validates cfg, resolves the solver name, and starts every
// shard's worker pools. The returned server must be Closed to release them.
func NewSharded(cfg ShardedConfig) (*ShardedServer, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	cfg.Server = cfg.Server.withDefaults()
	solver, err := sea.Get(cfg.Server.Solver)
	if err != nil {
		return nil, err
	}
	s := &ShardedServer{
		cfg:  cfg,
		ring: newHashRing(cfg.Shards),
		gate: newTenantGate(cfg.TenantMaxInFlight, cfg.TenantMaxQueue),
		done: make(chan struct{}),
	}
	for range cfg.Shards {
		s.shards = append(s.shards, newShard(cfg.Server, solver, s.done, &s.levels))
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *ShardedServer) NumShards() int { return len(s.shards) }

// ShardFor returns the shard index serving problems of the given shape.
// The mapping is a pure function of Shards, so routing is reproducible
// across servers and restarts.
func (s *ShardedServer) ShardFor(m, n int, general bool) int {
	return s.ring.route(shapeHash(shapeKey{m: m, n: n, general: general}))
}

// route returns the shard that owns key.
func (s *ShardedServer) route(key shapeKey) *shard {
	return s.shards[s.ring.route(shapeHash(key))]
}

// Submit solves one problem on its shape's shard, returning a detached
// Solution (no aliasing of pooled memory). opts may be nil, meaning the
// server's configured options — the recommended, allocation-free-admission
// path; a non-nil opts is cloned for the request and its Arena/Runner
// fields are overridden by the server.
//
// Submit blocks at the tenant gate, when one is configured, while the
// request is queued (bounded by MaxQueue) and while it solves; it returns
// early with sea.ErrSaturated when a queue is full, ErrClosed after Close,
// or ctx.Err() when the caller's context ends first. On iteration-limit
// exhaustion the error wraps sea.ErrNotConverged and the returned Solution
// is the best iterate, per the facade's contract.
func (s *ShardedServer) Submit(ctx context.Context, p *sea.Problem, opts *sea.Options) (*sea.Solution, error) {
	return s.SubmitTraced(ctx, p, opts, nil)
}

// SubmitTraced is Submit with a per-request trace observer layered onto the
// request's options: the request solves exactly as a plain Submit with the
// same opts (nil = the server's template, arena, runner), and obs
// additionally receives its iteration events. The transport's streamed-trace
// jobs ride this path. obs is synchronized by the server; a nil obs degrades
// to Submit.
func (s *ShardedServer) SubmitTraced(ctx context.Context, p *sea.Problem, opts *sea.Options, obs sea.Trace) (*sea.Solution, error) {
	var out sea.Solution
	filled, err := s.submit(ctx, p, opts, &out, obs)
	if !filled {
		return nil, err
	}
	return &out, err
}

// SubmitInto is Submit draining the result into caller-owned memory: into's
// slice capacity is reused when it suffices, so a serving loop that reuses
// one Solution per worker reaches steady-state hit-path allocations of
// ~1 alloc per request (the solver's internal options clone). It reports
// whether into was filled — true whenever a solve produced an iterate, even
// alongside a non-nil error (non-convergence, cancellation mid-solve).
func (s *ShardedServer) SubmitInto(ctx context.Context, p *sea.Problem, opts *sea.Options, into *sea.Solution) (bool, error) {
	if into == nil {
		return false, fmt.Errorf("serve: SubmitInto requires a non-nil destination")
	}
	return s.submit(ctx, p, opts, into, nil)
}

// submit keys the request, checks the closed flag, passes the tenant gate
// and hands the request to its shard.
func (s *ShardedServer) submit(ctx context.Context, p *sea.Problem, opts *sea.Options, into *sea.Solution, obs sea.Trace) (bool, error) {
	key, err := requestKey(p)
	if err != nil {
		return false, err
	}
	if isClosed(s.done) {
		return false, ErrClosed
	}
	if s.gate != nil {
		tenant := TenantFromContext(ctx)
		if err := s.gate.acquire(ctx, tenant, s.done); err != nil {
			return false, err
		}
		defer s.gate.release(tenant)
	}
	return s.route(key).submit(ctx, key, p, opts, into, obs)
}

// RequestOptions resolves per-request overrides into the opts argument of
// the Submit variants: it returns nil when every override matches the
// server's configured template (the zero-overhead path — the request solves
// on the prebuilt per-arena options), and otherwise a detached clone of the
// template with the overridden fields replaced. The returned options are
// the caller's to further adjust before submitting.
func (s *ShardedServer) RequestOptions(overrides ...Override) *sea.Options {
	// Every shard is built from the same Config, so the first shard's
	// template answers for all.
	return s.shards[0].requestOptions(overrides)
}

// NewSession opens a sequence session (see Session) on one of the shards,
// assigned round-robin. A session owns a dedicated arena rather than a
// pooled one, so shape-affinity routing buys it nothing; round-robin
// spreads the sessions' admission load evenly instead.
func (s *ShardedServer) NewSession(cfg SessionConfig) (*Session, error) {
	if isClosed(s.done) {
		return nil, ErrClosed
	}
	shard := int(s.sesSeq.Add(1)-1) % len(s.shards)
	return s.shards[shard].newSession(cfg)
}

// SubmitAll solves a batch, fanning the problems out across the shards with
// at most Shards×MaxInFlight submitting goroutines, and returns one Result
// per problem, index-aligned. Individual problems are routed, admitted, and
// failed independently; the batch itself never fails.
func (s *ShardedServer) SubmitAll(ctx context.Context, problems []*sea.Problem, opts *sea.Options) []Result {
	results := make([]Result, len(problems))
	gate := make(chan struct{}, len(s.shards)*s.cfg.Server.MaxInFlight)
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

// Prewarm provisions the shape pool for p, on its shard, with up to n
// warmed arenas (n <= 0 or n > ArenasPerShape means ArenasPerShape),
// running one solve per arena so the kernel warm-start state is populated
// before live traffic arrives. It is the deterministic way to reach the
// all-hits steady state: concurrent warm-up traffic only grows a pool as
// far as the scheduler actually overlaps requests. Prewarm takes an
// in-flight slot through the shard's admission control, like a request,
// and holds it for all n solves; it is not counted as a submission (the
// pool's miss counters do record the cold builds) and bypasses the tenant
// gate. It returns the first solve error, keeping any arenas already
// warmed.
func (s *ShardedServer) Prewarm(ctx context.Context, p *sea.Problem, n int) error {
	key, err := requestKey(p)
	if err != nil {
		return err
	}
	if isClosed(s.done) {
		return ErrClosed
	}
	return s.route(key).prewarm(ctx, key, p, n)
}

// Stats returns the shard-merged snapshot: counters and latency aggregates
// summed across shards, shape pools concatenated (each shape lives on
// exactly one shard, so no two shards report the same pool). The in-flight
// and queued levels and their peaks are the server's own: the sum of the
// shards' peaks, reached at different times, overstates the server's.
func (s *ShardedServer) Stats() Stats {
	var merged Stats
	for i, sh := range s.shards {
		st := sh.stats()
		if i == 0 {
			merged = st
			continue
		}
		merged.Submitted += st.Submitted
		merged.Completed += st.Completed
		merged.Failed += st.Failed
		merged.Rejected += st.Rejected
		merged.ShapeHits += st.ShapeHits
		merged.ShapeMisses += st.ShapeMisses
		merged.ArenasEvicted += st.ArenasEvicted
		merged.Shapes = append(merged.Shapes, st.Shapes...)
		merged.QueueWait = merged.QueueWait.Merge(st.QueueWait)
		merged.Solve = merged.Solve.Merge(st.Solve)
		merged.Solver = merged.Solver.Add(st.Solver)
	}
	merged.InFlight, merged.PeakInFlight = s.levels.inFlight.Level(), s.levels.inFlight.High()
	merged.Queued, merged.PeakQueued = s.levels.queued.Level(), s.levels.queued.High()
	return merged
}

// ShardStats returns each shard's own snapshot, index-aligned with the
// routing (ShardFor).
func (s *ShardedServer) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.stats()
	}
	return out
}

// Close rejects further submissions, waits for every shard's in-flight
// solves to drain, and releases every pooled arena, open session and
// worker pool. Requests waiting in a queue or at the tenant gate leave with
// ErrClosed. It is idempotent.
func (s *ShardedServer) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		for _, sh := range s.shards {
			sh.close()
		}
	})
}

// shapeHash hashes a shape-pool key onto the ring's key space: 64-bit
// FNV-1a over the dimensions, representation, and storage class, finished
// with mix64. Shapes and ring points are both counter-like inputs, and raw
// FNV leaves them clustered enough that 10k shapes can land 2.6× off a
// uniform split; the finalizer restores avalanche and brings the spread
// within ~15% (see TestShardRoutingBalance).
func shapeHash(key shapeKey) uint64 {
	var buf [26]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(key.m))
	binary.LittleEndian.PutUint64(buf[8:], uint64(key.n))
	if key.general {
		buf[16] = 1
	}
	if key.csr {
		buf[17] = 1
	}
	binary.LittleEndian.PutUint64(buf[18:], uint64(key.nnz))
	h := fnv.New64a()
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche pass that
// spreads weakly mixed 64-bit values uniformly over the key space.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ringVirtualNodes is the number of ring points per shard: enough to smooth
// the shape-space split across shards (the property suite pins a ≤2×
// balance envelope).
const ringVirtualNodes = 128

// hashRing is a fixed consistent-hash ring: ringVirtualNodes points per shard,
// sorted by point hash; a key routes to the first point clockwise from its
// hash. With a fixed shard count the ring is equivalent to any other
// deterministic balanced map, but it keeps the shape→shard assignment
// stable under shard-count changes (only ~1/N of shapes move), which is
// what lets a resized deployment keep most of its arena pools warm.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

func newHashRing(shards int) hashRing {
	r := hashRing{points: make([]ringPoint, 0, shards*ringVirtualNodes)}
	var buf [16]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < ringVirtualNodes; v++ {
			binary.LittleEndian.PutUint64(buf[0:], uint64(s))
			binary.LittleEndian.PutUint64(buf[8:], uint64(v))
			h := fnv.New64a()
			h.Write(buf[:])
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (vanishingly rare for FNV-64) break by shard index so the
		// ring order — and therefore routing — stays deterministic.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// route returns the shard owning key: the first ring point at or after the
// key's hash, wrapping at the top of the key space.
func (r hashRing) route(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
