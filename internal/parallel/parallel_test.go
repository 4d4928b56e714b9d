package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// The partition contract of Pool.ForChunks: with p = min(Workers(), n),
// chunk c covers [c·n/p, (c+1)·n/p), so every index runs exactly once and
// the split depends on the worker count alone.

// TestForCoversAllIndices: ForChunksCtx under a live context visits every
// index once and returns nil; under a done context it visits none and
// returns the context's error.
func TestForCoversAllIndices(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{0, 1, 2, 3, 7, 16} {
		pool := NewPool(p)
		for _, n := range []int{0, 1, 2, 5, 100} {
			seen := make([]atomic.Int32, n)
			visit := func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			}
			if err := pool.ForChunksCtx(context.Background(), n, visit); err != nil {
				t.Fatalf("p=%d n=%d: live context returned %v", p, n, err)
			}
			if err := pool.ForChunksCtx(done, n, visit); !errors.Is(err, context.Canceled) {
				t.Fatalf("p=%d n=%d: done context returned %v, want context.Canceled", p, n, err)
			}
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Errorf("p=%d n=%d: index %d visited %d times", p, n, i, got)
				}
			}
		}
		pool.Close()
	}
}

func TestForChunksPartition(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6} {
		pool := NewPool(p)
		n := 17
		covered := make([]bool, n)
		pool.ForChunks(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Errorf("p=%d: index %d covered twice", p, i)
				}
				covered[i] = true
			}
		})
		pool.Close()
		for i, c := range covered {
			if !c {
				t.Errorf("p=%d: index %d not covered", p, i)
			}
		}
	}
}

func TestForChunksChunkIDs(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var ids [4]atomic.Int32
	pool.ForChunks(100, func(c, lo, hi int) {
		ids[c].Add(1)
		if lo != c*25 || hi != (c+1)*25 {
			t.Errorf("chunk %d: got [%d,%d), want [%d,%d)", c, lo, hi, c*25, (c+1)*25)
		}
	})
	for c := range ids {
		if ids[c].Load() != 1 {
			t.Errorf("chunk %d ran %d times", c, ids[c].Load())
		}
	}
}

func TestChunkBoundsClamp(t *testing.T) {
	// More workers than items: each item is its own chunk and the extra
	// workers get none.
	pool := NewPool(10)
	var chunks atomic.Int32
	pool.ForChunks(3, func(c, lo, hi int) {
		chunks.Add(1)
		if lo != c || hi != c+1 {
			t.Errorf("chunk %d: got [%d,%d), want [%d,%d)", c, lo, hi, c, c+1)
		}
	})
	pool.Close()
	if chunks.Load() != 3 {
		t.Errorf("10 workers over 3 items ran %d chunks, want 3", chunks.Load())
	}
	// p < 1 behaves as p = 1: one chunk over everything.
	pool = NewPool(0)
	defer pool.Close()
	pool.ForChunks(5, func(c, lo, hi int) {
		if c != 0 || lo != 0 || hi != 5 {
			t.Errorf("p=0: chunk (%d, %d, %d), want (0, 0, 5)", c, lo, hi)
		}
	})
}

func TestDeterministicResults(t *testing.T) {
	n := 1000
	square := func(out []float64) func(_, lo, hi int) {
		return func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i * i)
			}
		}
	}
	ref := make([]float64, n)
	serial := NewPool(1)
	serial.ForChunks(n, square(ref))
	serial.Close()
	for _, p := range []int{2, 4, 8} {
		out := make([]float64, n)
		pool := NewPool(p)
		pool.ForChunks(n, square(out))
		pool.Close()
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("p=%d: result differs at %d", p, i)
			}
		}
	}
}

func TestZeroItems(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	called := false
	pool.ForChunks(0, func(_, _, _ int) { called = true })
	if called {
		t.Error("callback invoked for n=0")
	}
}
