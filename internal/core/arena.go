package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sea/internal/parallel"
)

// ErrArenaBusy is returned when a solve is handed an Arena that is already
// backing a running solve — arenas are single-flight. Layers that multiplex
// concurrent requests over arenas (pkg/sea/serve) must check one out per
// request; this sentinel is the safety net when that discipline is violated.
var ErrArenaBusy = errors.New("core: arena already backs a running solve")

// Arena owns the reusable working state of repeated diagonal (or general)
// solves: the full iterate/multiplier buffer set, the per-worker
// equilibration batch buffers and column tiles, the per-row and per-column warm-start states
// of the kernel, a persistent worker pool when the caller supplies no
// Runner, and the backing arrays of the returned Solution. Attach one via
// Options.Arena and back-to-back Solve calls on same-shape problems run with
// (near) zero steady-state allocations and warm-started breakpoint sorts.
//
// Shape is the reuse key: a solve whose dimensions differ from the cached
// state simply rebuilds the buffers (correct, just cold). Reuse never
// changes results — warm-started kernel solves are bit-identical to cold
// ones — so an arena is purely a performance vehicle.
//
// An Arena is not safe for concurrent use: it may back at most one running
// solve at a time (enforced; a second concurrent solve fails fast). The
// Solution returned by an arena-backed solve aliases arena-owned buffers and
// is valid until the next solve on the same arena; callers that need the
// data longer must copy it out.
type Arena struct {
	inUse atomic.Bool

	st *diagState

	// pool is the arena-owned worker pool, created (and re-created on a
	// Procs change) only when Options.Runner is nil. It outlives individual
	// solves; Close releases it.
	pool      *parallel.Pool
	poolProcs int

	// pre owns the preconditioning stage's buffers (scaled problem copies,
	// warm-start scratch); populated on the first preconditioned solve.
	pre *precondState

	// Solution backing, reused across solves.
	solX, solS, solD, solLambda, solMu []float64
	sol                                Solution
}

// NewArena returns an empty arena. The first solve populates it.
func NewArena() *Arena { return &Arena{} }

// acquire marks the arena as backing a running solve. A nil arena is a
// no-op (the non-reusing path).
func (a *Arena) acquire() error {
	if a == nil {
		return nil
	}
	if !a.inUse.CompareAndSwap(false, true) {
		return fmt.Errorf("%w; arenas are single-flight", ErrArenaBusy)
	}
	return nil
}

func (a *Arena) release() {
	if a != nil {
		a.inUse.Store(false)
	}
}

// Close releases the arena's persistent worker pool, if it created one. The
// cached buffers need no teardown beyond garbage collection.
func (a *Arena) Close() {
	if a.pool != nil {
		a.pool.Close()
		a.pool = nil
		a.poolProcs = 0
	}
}

// resizeF returns buf with length n, reallocating only when capacity is
// short.
func resizeF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
