package parallel

import (
	"sync/atomic"
	"testing"
)

func TestPoolCoversAllIndices(t *testing.T) {
	for _, p := range []int{0, 1, 2, 3, 7, 16} {
		pool := NewPool(p)
		for _, n := range []int{0, 1, 2, 5, 100} {
			seen := make([]atomic.Int32, n)
			pool.ForChunks(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Errorf("p=%d n=%d: index %d visited %d times", p, n, i, got)
				}
			}
		}
		pool.Close()
	}
}

func TestPoolMatchesChunkBounds(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, n := range []int{1, 3, 4, 17, 100} {
		var calls atomic.Int32
		pool.ForChunks(n, func(c, lo, hi int) {
			calls.Add(1)
			p := min(4, n)
			wantLo, wantHi := c*n/p, (c+1)*n/p
			if lo != wantLo || hi != wantHi {
				t.Errorf("n=%d chunk %d: got [%d,%d), want [%d,%d)", n, c, lo, hi, wantLo, wantHi)
			}
		})
		wantCalls := 4
		if n < 4 {
			wantCalls = n
		}
		if int(calls.Load()) != wantCalls {
			t.Errorf("n=%d: %d chunks ran, want %d", n, calls.Load(), wantCalls)
		}
	}
}

// TestPoolReuse drives many dispatches through one pool — the steady-state
// pattern of the solver's alternating phases.
func TestPoolReuse(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	n := 50
	acc := make([]int, n)
	for round := 0; round < 200; round++ {
		pool.ForChunks(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				acc[i]++
			}
		})
	}
	for i, v := range acc {
		if v != 200 {
			t.Fatalf("index %d accumulated %d, want 200", i, v)
		}
	}
}

func TestPoolCloseDegradesToSerial(t *testing.T) {
	pool := NewPool(4)
	pool.Close()
	count := 0
	pool.ForChunks(10, func(c, lo, hi int) {
		if c != 0 || lo != 0 || hi != 10 {
			t.Errorf("closed pool chunk (%d, %d, %d), want (0, 0, 10)", c, lo, hi)
		}
		count++
	})
	if count != 1 {
		t.Errorf("closed pool ran %d chunks, want 1 serial chunk", count)
	}
}

// BenchmarkDispatchPool times one dispatch of a tiny body over eight
// workers, so scheduling cost dominates.
func BenchmarkDispatchPool(b *testing.B) {
	pool := NewPool(8)
	defer pool.Close()
	var sink atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.ForChunks(64, func(_, lo, hi int) {
			sink.Add(int64(hi - lo))
		})
	}
}
