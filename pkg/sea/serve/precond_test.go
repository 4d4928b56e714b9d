package serve

import (
	"context"
	"math"
	"testing"

	"sea/pkg/sea"
)

// TestRequestOptionsContract pins the per-request preconditioning API:
// asking for the template's own mode returns nil (the warm zero-alloc
// submit path), any other mode returns a detached clone with the per-request
// machinery zeroed so submit can re-fill it.
func TestRequestOptionsContract(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if o := s.RequestOptions(); o != nil {
		t.Fatalf("RequestOptions() = %+v, want nil", o)
	}
	if o := s.RequestOptions(WithPrecond(sea.PrecondNone)); o != nil {
		t.Fatalf("RequestOptions(template mode) = %+v, want nil", o)
	}
	o := s.RequestOptions(WithPrecond(sea.PrecondScale))
	if o == nil {
		t.Fatal("RequestOptions(override) = nil")
	}
	if o.Precondition != sea.PrecondScale {
		t.Fatalf("Precondition = %v", o.Precondition)
	}
	if o.Arena != nil || o.Runner != nil || o.Trace != nil || o.Mu0 != nil {
		t.Fatalf("override clone carries per-request machinery: %+v", o)
	}

	// With a preconditioned template the polarity flips.
	base := sea.DefaultOptions()
	base.Precondition = sea.PrecondScale
	ps, err := newServer(Config{MaxInFlight: 1, Options: base})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if o := ps.RequestOptions(WithPrecond(sea.PrecondScale)); o != nil {
		t.Fatalf("preconditioned template: RequestOptions(scale) = %+v, want nil", o)
	}
	if o := ps.RequestOptions(WithPrecond(sea.PrecondNone)); o == nil || o.Precondition != sea.PrecondNone {
		t.Fatalf("preconditioned template: RequestOptions(none) = %+v", o)
	}

	// The objective override follows the same contract.
	if o := s.RequestOptions(WithObjective(sea.ObjectiveQuadratic)); o != nil {
		t.Fatalf("RequestOptions(template objective) = %+v, want nil", o)
	}
	if o := s.RequestOptions(WithObjective(sea.ObjectiveEntropy)); o == nil || o.Objective != sea.ObjectiveEntropy {
		t.Fatalf("RequestOptions(entropy) = %+v", o)
	}
}

// TestPrecondRequestSolves: a per-request preconditioned submit must solve
// the same problem as the plain path (same objective to rounding) and
// report the stage's wall time, over one shard and over two.
func TestPrecondRequestSolves(t *testing.T) {
	p := testProblem(t, 24, 18, 1.3, 91)
	ctx := context.Background()

	s, err := newServer(Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh, err := NewSharded(ShardedConfig{Shards: 2, Server: Config{MaxInFlight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	plain, err := s.Submit(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.PrecondNs != 0 {
		t.Fatalf("plain solve reports PrecondNs = %d", plain.PrecondNs)
	}
	for name, backend := range map[string]*ShardedServer{"shards=1": s, "shards=2": sh} {
		pre, err := backend.Submit(ctx, p, backend.RequestOptions(WithPrecond(sea.PrecondISP)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pre.PrecondNs <= 0 {
			t.Fatalf("%s: preconditioned solve reports PrecondNs = %d", name, pre.PrecondNs)
		}
		if gap := math.Abs(pre.Objective - plain.Objective); gap > 1e-8*(1+math.Abs(plain.Objective)) {
			t.Fatalf("%s: objective %g vs plain %g", name, pre.Objective, plain.Objective)
		}
	}
}

// TestPrecondWarmAllocations: with preconditioning in the server's template
// the scaling buffers live in the arena, so the steady-state hit path must
// stay within the serving layer's allocation promise.
func TestPrecondWarmAllocations(t *testing.T) {
	base := sea.DefaultOptions()
	base.Precondition = sea.PrecondScale
	s, err := newServer(Config{MaxInFlight: 1, Options: base})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := testProblem(t, 30, 30, 1.25, 14)
	ctx := context.Background()
	var out sea.Solution
	for i := 0; i < 3; i++ {
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
		t.Fatalf("preconditioned steady-state hit path allocates %.1f/op, want <= 2", allocs)
	}
}
