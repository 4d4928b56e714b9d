package serve

import (
	"context"
	"math"
	"testing"

	"sea/pkg/sea"
)

// testCSRProblem builds a CSR fixed-totals problem of order m×n with a
// cyclic band of the given width, wrapped for the facade.
func testCSRProblem(t testing.TB, m, n, band int) *sea.Problem {
	t.Helper()
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	upper := make([]float64, m*n)
	for k := range gamma {
		gamma[k] = 1
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for d := 0; d < band; d++ {
			j := (i%n + d) % n
			k := i*n + j
			x0[k] = 1 + float64(k%7)
			upper[k] = math.Inf(1)
			s0[i] += 1.4 * x0[k]
			d0[j] += 1.4 * x0[k]
		}
	}
	dp := &sea.DiagonalProblem{M: m, N: n, X0: x0, Gamma: gamma, S0: s0, D0: d0, Upper: upper, Kind: sea.FixedTotals}
	p, err := sea.NewDiagonalCSR(dp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShapePoolsKeyOnStorage: a dense and a CSR problem of the same m×n must
// land in different shape pools — their arena buffers have different lengths
// (m·n vs nnz), so sharing a pool would hand a CSR solve a dense-sized arena
// and vice versa. Two CSR problems with different nnz must split too.
func TestShapePoolsKeyOnStorage(t *testing.T) {
	s, err := newServer(Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dense := testProblem(t, 18, 12, 1.3, 1)
	csr3 := testCSRProblem(t, 18, 12, 3)
	csr5 := testCSRProblem(t, 18, 12, 5)
	for _, p := range []*sea.Problem{dense, csr3, csr5, dense, csr3, csr5} {
		if _, err := s.Submit(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if len(st.Shapes) != 3 {
		t.Fatalf("%d shape pools, want 3 (dense, csr nnz=54, csr nnz=90): %+v", len(st.Shapes), st.Shapes)
	}
	byNnz := map[int]ShapeStats{}
	for _, sh := range st.Shapes {
		if sh.M != 18 || sh.N != 12 {
			t.Fatalf("pool for %dx%d, want 18x12", sh.M, sh.N)
		}
		byNnz[sh.Nnz] = sh
	}
	if sh, ok := byNnz[0]; !ok || sh.CSR {
		t.Fatalf("no dense pool in %+v", st.Shapes)
	}
	for _, nnz := range []int{18 * 3, 18 * 5} {
		sh, ok := byNnz[nnz]
		if !ok || !sh.CSR {
			t.Fatalf("no csr pool with nnz=%d in %+v", nnz, st.Shapes)
		}
		// Each CSR shape was submitted twice: one cold miss, one warm hit.
		if sh.Hits != 1 || sh.Misses != 1 {
			t.Fatalf("csr pool nnz=%d: hits=%d misses=%d, want 1/1 (second solve must reuse the arena)", nnz, sh.Hits, sh.Misses)
		}
	}
}

// TestShardRoutingConsistentForStorage: a sharded server routes a shape's
// requests to one shard regardless of storage aliasing — and CSR solves come
// back correct through the full routing path.
func TestShardRoutingConsistentForStorage(t *testing.T) {
	s, err := NewSharded(ShardedConfig{Shards: 4, Server: Config{MaxInFlight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := testCSRProblem(t, 18, 12, 3)
	ref, err := s.Submit(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.X) != p.Diagonal.Pattern.Nnz() {
		t.Fatalf("solution X has length %d, want nnz = %d", len(ref.X), p.Diagonal.Pattern.Nnz())
	}
	for rep := 0; rep < 3; rep++ {
		sol, err := s.Submit(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ref.X {
			if sol.X[k] != ref.X[k] {
				t.Fatalf("rep %d: X[%d] = %v, want %v (bit-exact across repeats)", rep, k, sol.X[k], ref.X[k])
			}
		}
	}
	// Exactly one shard saw the shape: its pool stats show 1 miss, 3 hits.
	var pools int
	for _, st := range s.ShardStats() {
		for _, sh := range st.Shapes {
			pools++
			if !sh.CSR || sh.Nnz != 18*3 {
				t.Fatalf("unexpected pool %+v", sh)
			}
			if sh.Misses != 1 || sh.Hits != 3 {
				t.Fatalf("pool stats hits=%d misses=%d, want 3/1", sh.Hits, sh.Misses)
			}
		}
	}
	if pools != 1 {
		t.Fatalf("shape spread across %d pools, want 1 (consistent routing)", pools)
	}
}
