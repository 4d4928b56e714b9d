package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sea/internal/testutil"
	"sea/pkg/sea"
)

// tenShapes enumerates 10k distinct problem shapes: every (m, n) on a
// 100×100 grid. The property tests treat this as a sample of the shape
// space a long-lived multi-tenant server would see.
func tenShapes() [][2]int {
	shapes := make([][2]int, 0, 10000)
	for m := 1; m <= 100; m++ {
		for n := 1; n <= 100; n++ {
			shapes = append(shapes, [2]int{m, n})
		}
	}
	return shapes
}

// TestShardRoutingDeterministic: routing is a pure function of the
// configuration — the same shape maps to the same shard on every call, on
// every independently constructed server, for every shard count. This is
// what makes warm arena pools survive a server restart behind a stable
// load balancer.
func TestShardRoutingDeterministic(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			a, err := NewSharded(ShardedConfig{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := NewSharded(ShardedConfig{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			for _, sh := range tenShapes() {
				m, n := sh[0], sh[1]
				first := a.ShardFor(m, n, false)
				if again := a.ShardFor(m, n, false); again != first {
					t.Fatalf("shape %dx%d: routing not stable on one server: %d then %d", m, n, first, again)
				}
				if other := b.ShardFor(m, n, false); other != first {
					t.Fatalf("shape %dx%d: independent servers disagree: %d vs %d", m, n, first, other)
				}
				if first < 0 || first >= shards {
					t.Fatalf("shape %dx%d: shard %d out of range [0,%d)", m, n, first, shards)
				}
			}
		})
	}
}

// TestShardRoutingSeparatesRepresentations: the general (dense-weight) and
// diagonal pools of one shape are distinct arena families, so the routing
// key includes the representation bit.
func TestShardRoutingSeparatesRepresentations(t *testing.T) {
	s, err := NewSharded(ShardedConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	differs := 0
	for _, sh := range tenShapes()[:1000] {
		if s.ShardFor(sh[0], sh[1], false) != s.ShardFor(sh[0], sh[1], true) {
			differs++
		}
	}
	if differs == 0 {
		t.Error("general flag never changes routing: representation is not part of the key")
	}
}

// TestShardRoutingBalance: across 10k shapes, no shard receives more than
// 2× its uniform share and none receives less than half — the consistent
// hash with virtual nodes must split the shape space evenly enough that
// adding shards actually adds capacity.
func TestShardRoutingBalance(t *testing.T) {
	shapes := tenShapes()
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := NewSharded(ShardedConfig{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			counts := make([]int, shards)
			for _, sh := range shapes {
				counts[s.ShardFor(sh[0], sh[1], false)]++
			}
			uniform := float64(len(shapes)) / float64(shards)
			for i, c := range counts {
				if float64(c) > 2*uniform || float64(c) < uniform/2 {
					t.Errorf("shard %d holds %d of %d shapes (uniform %.0f): outside the 2x balance envelope (all: %v)",
						i, c, len(shapes), uniform, counts)
				}
			}
			t.Logf("shards=%d counts=%v (uniform %.0f)", shards, counts, uniform)
		})
	}
}

// --- tenantGate unit tests -------------------------------------------------

// mustAcquire acquires synchronously and fails the test on any error.
func mustAcquire(t *testing.T, g *tenantGate, tenant string) {
	t.Helper()
	if err := g.acquire(context.Background(), tenant, nil); err != nil {
		t.Fatalf("acquire(%q): %v", tenant, err)
	}
}

// parkWaiter starts an acquire that is expected to park, returning a channel
// that yields its result. It blocks until the gate reports the waiter queued,
// so callers can build deterministic queue orders.
func parkWaiter(t *testing.T, g *tenantGate, tenant string) <-chan error {
	t.Helper()
	_, _, before := g.snapshotQueued()
	res := make(chan error, 1)
	go func() { res <- g.acquire(context.Background(), tenant, nil) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, q := g.snapshotQueued(); q == before+1 {
			return res
		}
		select {
		case err := <-res:
			t.Fatalf("acquire(%q) did not park: %v", tenant, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("acquire(%q) never parked", tenant)
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshotQueued aliases snapshot for readability in the tests.
func (g *tenantGate) snapshotQueued() (tenants, inflight, queued int) { return g.snapshot() }

// TestTenantGateQuotaRejects: a tenant at its in-flight cap with a full
// waiting queue is rejected with ErrTenantQuota, which wraps the facade's
// ErrSaturated so sentinel-only callers behave.
func TestTenantGateQuotaRejects(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newTenantGate(1, 1)
	mustAcquire(t, g, "acme")
	waiter := parkWaiter(t, g, "acme")

	err := g.acquire(context.Background(), "acme", nil)
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("err = %v, want ErrTenantQuota", err)
	}
	if !errors.Is(err, sea.ErrSaturated) {
		t.Fatalf("err = %v, must also wrap sea.ErrSaturated", err)
	}

	// Another tenant is unaffected by acme's saturation.
	mustAcquire(t, g, "zenith")

	g.release("acme") // wakes the parked waiter
	if err := <-waiter; err != nil {
		t.Fatalf("parked waiter: %v", err)
	}
	g.release("acme")
	g.release("zenith")
	if tenants, inflight, queued := g.snapshot(); tenants != 0 || inflight != 0 || queued != 0 {
		t.Errorf("gate not empty after releases: tenants=%d inflight=%d queued=%d", tenants, inflight, queued)
	}
}

// TestTenantGateFairQueueing: admission is fair across tenants — a heavy
// tenant's deep queue never delays a light tenant's own grant (each
// tenant's capacity is its own), and within one tenant the queue is strict
// FIFO. Heavy's two waiters park before light's one; light's release must
// still admit light's waiter immediately.
func TestTenantGateFairQueueing(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newTenantGate(1, 4)
	mustAcquire(t, g, "heavy")
	mustAcquire(t, g, "light")

	grants := make(chan string, 3)
	wrap := func(name string, res <-chan error) {
		go func() {
			if err := <-res; err == nil {
				grants <- name
			} else {
				grants <- "error:" + err.Error()
			}
		}()
	}
	wrap("heavy-1", parkWaiter(t, g, "heavy"))
	wrap("heavy-2", parkWaiter(t, g, "heavy"))
	wrap("light-1", parkWaiter(t, g, "light"))

	recv := func() string {
		select {
		case s := <-grants:
			return s
		case <-time.After(5 * time.Second):
			t.Fatal("no grant arrived")
			return ""
		}
	}

	// light releases: its own waiter is admitted at once, despite heavy's
	// earlier and deeper queue — heavy cannot occupy light's capacity.
	g.release("light")
	if got := recv(); got != "light-1" {
		t.Fatalf("first grant to %q, want light-1 (heavy's queue must not delay light)", got)
	}
	// heavy's releases serve heavy's queue in FIFO order.
	g.release("heavy")
	if got := recv(); got != "heavy-1" {
		t.Fatalf("second grant to %q, want heavy-1 (FIFO within tenant)", got)
	}
	g.release("heavy")
	if got := recv(); got != "heavy-2" {
		t.Fatalf("third grant to %q, want heavy-2 (FIFO within tenant)", got)
	}

	g.release("heavy")
	g.release("light")
	if tenants, inflight, queued := g.snapshot(); tenants != 0 || inflight != 0 || queued != 0 {
		t.Errorf("gate not empty after releases: tenants=%d inflight=%d queued=%d", tenants, inflight, queued)
	}
}

// TestTenantGateCancelWhileParked: a parked waiter whose context ends leaves
// the gate with balanced accounting, and the tenant's next release still
// grants cleanly.
func TestTenantGateCancelWhileParked(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newTenantGate(1, 2)
	mustAcquire(t, g, "acme")

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- g.acquire(ctx, "acme", nil) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, q := g.snapshot(); q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	if _, _, q := g.snapshot(); q != 0 {
		t.Fatalf("queued = %d after cancellation, want 0", q)
	}

	g.release("acme")
	if tenants, inflight, queued := g.snapshot(); tenants != 0 || inflight != 0 || queued != 0 {
		t.Errorf("gate not empty: tenants=%d inflight=%d queued=%d", tenants, inflight, queued)
	}
	mustAcquire(t, g, "acme") // gate still functional
	g.release("acme")
}

// TestTenantContextHelpers: WithTenant/TenantFromContext round-trip, and the
// anonymous default.
func TestTenantContextHelpers(t *testing.T) {
	if got := TenantFromContext(context.Background()); got != "" {
		t.Errorf("anonymous tenant = %q, want \"\"", got)
	}
	ctx := WithTenant(context.Background(), "acme")
	if got := TenantFromContext(ctx); got != "acme" {
		t.Errorf("tenant = %q, want \"acme\"", got)
	}
}

// TestShardedSubmitHonorsTenantQuota: the gate is wired into the sharded
// submission path — a tenant saturating its quota is rejected with the
// sentinel pair while other tenants keep solving.
func TestShardedSubmitHonorsTenantQuota(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, err := NewSharded(ShardedConfig{
		Shards:            2,
		TenantMaxInFlight: 1,
		TenantMaxQueue:    1,
		Server:            Config{MaxInFlight: 2, MaxQueue: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Occupy acme's single in-flight slot and its one queue seat directly
	// via the gate (deterministic, no timing), then submit as acme.
	if err := s.gate.acquire(context.Background(), "acme", nil); err != nil {
		t.Fatal(err)
	}
	parked := parkWaiter(t, s.gate, "acme")

	p := testProblem(t, 8, 8, 1.2, 21)
	_, err = s.Submit(WithTenant(context.Background(), "acme"), p, nil)
	if !errors.Is(err, ErrTenantQuota) || !errors.Is(err, sea.ErrSaturated) {
		t.Fatalf("acme submit: %v, want ErrTenantQuota wrapping sea.ErrSaturated", err)
	}

	// A different tenant's submission sails through.
	if _, err := s.Submit(WithTenant(context.Background(), "zenith"), p, nil); err != nil {
		t.Fatalf("zenith submit: %v", err)
	}

	s.gate.release("acme")
	if err := <-parked; err != nil {
		t.Fatalf("parked acme waiter: %v", err)
	}
	s.gate.release("acme")
}

// TestShardedStatsServerWidePeaks: the merged peaks are the server's own
// high-water marks, not the sum of the shards'. Two sequential solves on
// different shards each raise their shard's PeakInFlight to 1, while the
// server never ran more than one solve at a time.
func TestShardedStatsServerWidePeaks(t *testing.T) {
	s, err := NewSharded(ShardedConfig{Shards: 2, Server: Config{MaxInFlight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var shapes [][2]int
	seen := map[int]bool{}
	for m := 4; len(shapes) < 2; m++ {
		if k := s.ShardFor(m, m, false); !seen[k] {
			seen[k] = true
			shapes = append(shapes, [2]int{m, m})
		}
	}
	for i, sh := range shapes {
		if _, err := s.Submit(context.Background(), testProblem(t, sh[0], sh[1], 1.2, uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	for k, st := range s.ShardStats() {
		if st.PeakInFlight != 1 {
			t.Fatalf("shard %d: PeakInFlight %d, want 1", k, st.PeakInFlight)
		}
	}
	if st := s.Stats(); st.PeakInFlight != 1 || st.InFlight != 0 || st.PeakQueued != 0 {
		t.Fatalf("merged stats: in flight %d (peak %d), peak queued %d; want 0 (1), 0", st.InFlight, st.PeakInFlight, st.PeakQueued)
	}
}
