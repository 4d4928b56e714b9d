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

// ShardedConfig parameterizes a ShardedServer: N independent inner Servers
// plus the routing ring and the per-tenant admission gate layered above
// them.
type ShardedConfig struct {
	// Shards is the inner Server count (default 1). Requests are routed by
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
	// Server configures every inner shard (see Config). Each shard gets its
	// own arena pools, worker pools, and admission control with these
	// limits, so the process-wide in-flight bound is Shards×MaxInFlight.
	Server Config
}

// ShardedServer consistent-hash routes solve requests by problem shape
// across N inner Servers. Same-shape requests always land on the same
// shard, so each shard's LRU arena pools stay warm for its share of the
// shape space and the shards never contend on one lock or queue. All
// methods are safe for concurrent use.
type ShardedServer struct {
	cfg    ShardedConfig
	shards []*Server
	ring   hashRing
	gate   *tenantGate // nil when tenant quotas are disabled
	sesSeq atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// NewSharded validates cfg and starts its Shards inner Servers.
func NewSharded(cfg ShardedConfig) (*ShardedServer, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	s := &ShardedServer{
		cfg:  cfg,
		ring: newHashRing(cfg.Shards),
		gate: newTenantGate(cfg.TenantMaxInFlight, cfg.TenantMaxQueue),
	}
	for i := 0; i < cfg.Shards; i++ {
		inner, err := NewServer(cfg.Server)
		if err != nil {
			for _, sh := range s.shards {
				sh.Close()
			}
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, inner)
	}
	return s, nil
}

// NumShards returns the inner Server count.
func (s *ShardedServer) NumShards() int { return len(s.shards) }

// ShardFor returns the shard index serving problems of the given shape.
// The mapping is a pure function of Shards, so routing is reproducible
// across servers and restarts.
func (s *ShardedServer) ShardFor(m, n int, general bool) int {
	return s.ring.route(shapeHash(shapeKey{m: m, n: n, general: general}))
}

// Submit routes the problem to its shape's shard; semantics are those of
// Server.Submit, behind the per-tenant gate when one is configured.
func (s *ShardedServer) Submit(ctx context.Context, p *sea.Problem, opts *sea.Options) (*sea.Solution, error) {
	var out sea.Solution
	filled, err := s.submitInto(ctx, p, opts, &out)
	if !filled {
		return nil, err
	}
	return &out, err
}

// SubmitTraced is Submit with a per-request trace observer layered onto the
// request's options (see Server.SubmitTraced).
func (s *ShardedServer) SubmitTraced(ctx context.Context, p *sea.Problem, opts *sea.Options, obs sea.Trace) (*sea.Solution, error) {
	var out sea.Solution
	filled, err := s.submitIntoObserved(ctx, p, opts, &out, obs)
	if !filled {
		return nil, err
	}
	return &out, err
}

// RequestOptions resolves per-request overrides against the shards' shared
// template (see Server.RequestOptions). Every shard is built from the same
// Config, so the first shard's template answers for all.
func (s *ShardedServer) RequestOptions(overrides ...Override) *sea.Options {
	return s.shards[0].RequestOptions(overrides...)
}

// NewSession opens a sequence session (see Server.NewSession) on one of the
// shards, assigned round-robin. A session owns a dedicated arena rather than
// a pooled one, so shape-affinity routing buys it nothing; round-robin
// spreads the sessions' admission load evenly instead.
func (s *ShardedServer) NewSession(cfg SessionConfig) (*Session, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	shard := int(s.sesSeq.Add(1)-1) % len(s.shards)
	return s.shards[shard].NewSession(cfg)
}

// SubmitInto routes the problem to its shape's shard; semantics are those
// of Server.SubmitInto, behind the per-tenant gate when one is configured.
func (s *ShardedServer) SubmitInto(ctx context.Context, p *sea.Problem, opts *sea.Options, into *sea.Solution) (bool, error) {
	if into == nil {
		return false, fmt.Errorf("serve: SubmitInto requires a non-nil destination")
	}
	return s.submitInto(ctx, p, opts, into)
}

func (s *ShardedServer) submitInto(ctx context.Context, p *sea.Problem, opts *sea.Options, into *sea.Solution) (bool, error) {
	return s.submitIntoObserved(ctx, p, opts, into, nil)
}

func (s *ShardedServer) submitIntoObserved(ctx context.Context, p *sea.Problem, opts *sea.Options, into *sea.Solution, obs sea.Trace) (bool, error) {
	key, err := requestKey(p)
	if err != nil {
		return false, err
	}
	if s.isClosed() {
		return false, ErrClosed
	}
	if s.gate != nil {
		tenant := TenantFromContext(ctx)
		if err := s.gate.acquire(ctx, tenant, s.shards[0].done); err != nil {
			return false, err
		}
		defer s.gate.release(tenant)
	}
	shard := s.shards[s.ring.route(shapeHash(key))]
	return shard.submit(ctx, p, opts, into, obs)
}

// SubmitAll fans a batch out across the shards with at most
// Shards×MaxInFlight submitting goroutines; results are index-aligned and
// individually routed, admitted, and failed, exactly as Server.SubmitAll.
func (s *ShardedServer) SubmitAll(ctx context.Context, problems []*sea.Problem, opts *sea.Options) []Result {
	results := make([]Result, len(problems))
	gate := make(chan struct{}, len(s.shards)*s.shards[0].cfg.MaxInFlight)
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

// Prewarm provisions the owning shard's pool for p (see Server.Prewarm).
func (s *ShardedServer) Prewarm(ctx context.Context, p *sea.Problem, n int) error {
	key, err := requestKey(p)
	if err != nil {
		return err
	}
	if s.isClosed() {
		return ErrClosed
	}
	return s.shards[s.ring.route(shapeHash(key))].Prewarm(ctx, p, n)
}

// Stats returns the shard-merged snapshot: counters and latency aggregates
// summed across shards, shape pools concatenated (each shape lives on
// exactly one shard, so no two shards report the same pool).
func (s *ShardedServer) Stats() Stats {
	var merged Stats
	for i, sh := range s.shards {
		st := sh.Stats()
		if i == 0 {
			merged = st
			continue
		}
		merged.Submitted += st.Submitted
		merged.Completed += st.Completed
		merged.Failed += st.Failed
		merged.Rejected += st.Rejected
		merged.InFlight += st.InFlight
		merged.PeakInFlight += st.PeakInFlight
		merged.Queued += st.Queued
		merged.PeakQueued += st.PeakQueued
		merged.ShapeHits += st.ShapeHits
		merged.ShapeMisses += st.ShapeMisses
		merged.ArenasEvicted += st.ArenasEvicted
		merged.Shapes = append(merged.Shapes, st.Shapes...)
		merged.QueueWait = merged.QueueWait.Merge(st.QueueWait)
		merged.Solve = merged.Solve.Merge(st.Solve)
		merged.Solver = merged.Solver.Add(st.Solver)
	}
	return merged
}

// ShardStats returns each shard's own snapshot, index-aligned with the
// routing (ShardFor).
func (s *ShardedServer) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}

func (s *ShardedServer) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close closes every shard (draining their in-flight solves) and is
// idempotent. Requests waiting at the tenant gate leave with ErrClosed once
// the first shard's done channel closes.
func (s *ShardedServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, sh := range s.shards {
		sh.Close()
	}
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
