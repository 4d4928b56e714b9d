package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolSetCheckoutBounds: the set never hands out more pools than it
// owns, and every borrowed pool schedules work correctly.
func TestPoolSetCheckoutBounds(t *testing.T) {
	const count, procs, loops = 3, 2, 50
	s := NewPoolSet(count, procs)
	defer s.Close()

	var borrowed, high atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				p := s.Get()
				if b := borrowed.Add(1); b > int64(count) {
					t.Errorf("%d pools borrowed at once, set owns %d", b, count)
				} else {
					for {
						h := high.Load()
						if b <= h || high.CompareAndSwap(h, b) {
							break
						}
					}
				}
				var sum atomic.Int64
				p.ForChunks(100, func(_, lo, hi int) {
					for k := lo; k < hi; k++ {
						sum.Add(int64(k))
					}
				})
				if sum.Load() != 4950 {
					t.Errorf("borrowed pool computed %d, want 4950", sum.Load())
				}
				borrowed.Add(-1)
				s.Put(p)
			}
		}()
	}
	wg.Wait()
	if high.Load() == 0 {
		t.Fatal("no pool was ever borrowed")
	}
}

// TestPoolSetSizeClamp: degenerate sizes are clamped to one pool.
func TestPoolSetSizeClamp(t *testing.T) {
	s := NewPoolSet(0, 0)
	if len(s.pools) != 1 {
		t.Fatalf("%d pools, want 1", len(s.pools))
	}
	p := s.Get()
	ran := false
	p.ForChunks(1, func(_, lo, hi int) { ran = lo == 0 && hi == 1 })
	if !ran {
		t.Fatal("clamped pool did not run the chunk")
	}
	s.Put(p)
	s.Close()
}
