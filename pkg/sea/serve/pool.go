package serve

import (
	"sea/pkg/sea"
)

// shapeKey identifies a pool of interchangeable solver arenas: two requests
// share warmed state exactly when their problems have the same dimensions,
// representation, and storage class (the arena's reuse key is the shape plus
// the stored-cell count; a mismatched checkout would still be correct, just
// cold). csr/nnz keep a CSR and a dense problem of equal (m, n) — whose
// working buffers differ in both layout and size — from ever aliasing each
// other's arenas.
type shapeKey struct {
	m, n    int
	general bool
	csr     bool
	nnz     int // stored cells for CSR problems, 0 for dense
}

// entry is one pooled reusable solver: an arena plus the prebuilt Options
// that attach it. The Options struct is reused across requests — the entry
// is checked out exclusively, so mutating opts.Runner per request is safe —
// which keeps the steady-state hit path free of per-request allocations.
type entry struct {
	key   shapeKey
	arena *sea.Arena
	opts  sea.Options
}

// shapePool is the per-shape free-list. All fields are guarded by the
// shard's mu.
type shapePool struct {
	key     shapeKey
	free    []*entry // LIFO: the most recently warmed entry is reused first
	total   int      // live entries, free + checked out
	lastUse uint64   // LRU tick of the most recent checkout
	hits    uint64   // checkouts served from the free-list
	misses  uint64   // checkouts that created a fresh (cold) entry
	evicted uint64   // arenas dropped by LRU eviction or free-list overflow
}

// checkout hands an entry for key to a request, creating the shape's pool
// and/or a fresh entry on demand and bumping the LRU clock. It never blocks:
// the number of checked-out entries is bounded by the admission control's
// in-flight limit, not by the pool.
func (s *shard) checkout(key shapeKey) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.shapes[key]
	if sp == nil {
		sp = &shapePool{key: key}
		s.shapes[key] = sp
		s.evictLocked(sp)
	}
	s.tick++
	sp.lastUse = s.tick
	if n := len(sp.free); n > 0 {
		e := sp.free[n-1]
		sp.free[n-1] = nil
		sp.free = sp.free[:n-1]
		sp.hits++
		s.hits.Add(1)
		return e
	}
	sp.misses++
	s.misses.Add(1)
	sp.total++
	e := &entry{key: key, arena: sea.NewArena()}
	e.opts = s.base
	e.opts.Arena = e.arena
	return e
}

// checkin returns a checked-out entry to its shape's free-list — or closes
// it when the shape was evicted meanwhile or the free-list is at capacity.
// The entry's solution memory (arena-owned) must already have been copied
// out: after checkin the next request may overwrite it.
func (s *shard) checkin(e *entry) {
	e.opts.Runner = nil
	s.mu.Lock()
	sp := s.shapes[e.key]
	keep := sp != nil && len(sp.free) < s.cfg.ArenasPerShape
	if keep {
		sp.free = append(sp.free, e)
	} else if sp != nil {
		sp.total--
		sp.evicted++
		s.evictions.Add(1)
	}
	s.mu.Unlock()
	if !keep {
		e.arena.Close()
	}
}

// evictLocked enforces the MaxShapes bound after keep was inserted: the
// least-recently-used other shape pool is dropped and its idle arenas
// closed. Checked-out entries of an evicted shape are closed lazily at
// checkin (their pool is gone from the map by then). Caller holds mu.
func (s *shard) evictLocked(keep *shapePool) {
	for len(s.shapes) > s.cfg.MaxShapes {
		var victim *shapePool
		for _, sp := range s.shapes {
			if sp == keep {
				continue
			}
			if victim == nil || sp.lastUse < victim.lastUse {
				victim = sp
			}
		}
		if victim == nil {
			return
		}
		delete(s.shapes, victim.key)
		victim.evicted += uint64(len(victim.free))
		s.evictions.Add(uint64(len(victim.free)))
		for _, e := range victim.free {
			e.arena.Close()
		}
		victim.free = nil
	}
}
