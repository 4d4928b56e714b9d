package parallel

import (
	"context"
	"sync"
)

// Pool is a persistent worker pool: p−1 long-lived background workers plus
// the calling goroutine, so a phase dispatch costs p−1 channel sends instead
// of p goroutine creations. The equilibration phases of one solve run
// thousands of dispatches over the same workers, which is where the
// amortization pays (the paper's IBM 3090-600E analogue is tasks dispatched
// to already-attached processors, not processors attached per task).
//
// A Pool is meant to be driven by one goroutine at a time: ForChunks blocks
// until the phase completes, and concurrent ForChunks calls from different
// goroutines are not allowed. Close must be called once, after the last
// ForChunks, to release the workers; a closed Pool degrades to serial
// inline execution.
type Pool struct {
	procs int
	ch    []chan poolTask // one per background worker
	wg    sync.WaitGroup  // outstanding chunks of the current dispatch
}

// poolTask is one chunk descriptor handed to a background worker.
type poolTask struct {
	fn            func(chunk, lo, hi int)
	chunk, lo, hi int
}

// NewPool starts a pool with parallelism p (treated as 1 when p < 1). The
// pool spawns p−1 background workers; chunk 0 of every dispatch runs on the
// calling goroutine.
func NewPool(p int) *Pool {
	if p < 1 {
		p = 1
	}
	pool := &Pool{procs: p, ch: make([]chan poolTask, p-1)}
	for w := range pool.ch {
		// Buffer 1: each worker receives at most one task per dispatch, so
		// the dispatch loop never blocks behind a busy worker.
		ch := make(chan poolTask, 1)
		pool.ch[w] = ch
		go func() {
			for t := range ch {
				t.fn(t.chunk, t.lo, t.hi)
				pool.wg.Done()
			}
		}()
	}
	return pool
}

// Workers returns the pool's parallelism.
func (pool *Pool) Workers() int { return pool.procs }

// ForChunks partitions [0,n) into p = min(Workers(), n) contiguous chunks,
// chunk c covering [c·n/p, (c+1)·n/p), runs fn(chunk, lo, hi) on every
// chunk, and blocks until all complete. Worker c always executes chunk c, so
// per-chunk scratch space (workspaces indexed by chunk) is never shared
// between OS threads within a dispatch.
func (pool *Pool) ForChunks(n int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	p := pool.procs
	if p > n {
		p = n
	}
	if p == 1 {
		fn(0, 0, n)
		return
	}
	pool.wg.Add(p - 1)
	for c := 1; c < p; c++ {
		pool.ch[c-1] <- poolTask{fn: fn, chunk: c, lo: c * n / p, hi: (c + 1) * n / p}
	}
	fn(0, 0, n/p) // chunk 0 on the caller
	pool.wg.Wait()
}

// ForChunksCtx is ForChunks with a cancellation gate: a done context skips
// the dispatch entirely (no channel sends, no goroutine handoff) and returns
// ctx.Err(); otherwise the phase runs to completion and ForChunksCtx returns
// nil. Cancellation is observed *between* phases, never inside one — a
// dispatched phase always finishes, so the disjoint-partition determinism
// contract is unaffected and no worker is ever abandoned mid-chunk.
func (pool *Pool) ForChunksCtx(ctx context.Context, n int, fn func(chunk, lo, hi int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	pool.ForChunks(n, fn)
	return nil
}

// Close shuts the background workers down. It must not race with an active
// ForChunks call.
func (pool *Pool) Close() {
	for _, ch := range pool.ch {
		close(ch)
	}
	pool.ch = nil
	pool.procs = 1
}
