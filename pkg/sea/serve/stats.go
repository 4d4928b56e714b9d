package serve

import (
	"fmt"
	"sort"
	"strings"

	"sea/internal/metrics"
)

// ShapeStats is one shape pool's snapshot.
type ShapeStats struct {
	// M, N and General identify the pool (General marks dense-weight
	// problems; false is the diagonal representation).
	M, N    int
	General bool
	// CSR marks pools serving sparse-storage diagonal problems; Nnz is their
	// stored-cell count (0 for dense pools).
	CSR bool
	Nnz int
	// Arenas is the pool's live arena count (idle + checked out); Idle the
	// free-list length.
	Arenas, Idle int
	// Hits and Misses count checkouts served warm vs created cold; Evicted
	// counts this pool's arenas dropped by the LRU/free-list bounds.
	Hits, Misses, Evicted uint64
}

// Stats is a point-in-time snapshot of the server's instrumentation.
type Stats struct {
	// Submitted counts every request that passed structural validation;
	// Completed those that finished with a nil error, Failed those that
	// finished with an error after starting (non-convergence, cancellation
	// mid-solve), Rejected those turned away before any solve ran
	// (saturation, closed server, context expiry while queued).
	Submitted, Completed, Failed, Rejected uint64
	// InFlight and Queued are current levels; the Peak fields are
	// high-water marks since the server started.
	InFlight, PeakInFlight int64
	Queued, PeakQueued     int64
	// ShapeHits/ShapeMisses aggregate pool checkouts across shapes; the
	// steady-state hit rate is the serving layer's key health figure.
	ShapeHits, ShapeMisses uint64
	// ArenasEvicted counts arenas closed by the LRU and free-list bounds.
	ArenasEvicted uint64
	// Shapes lists the live pools, most recently used first.
	Shapes []ShapeStats
	// QueueWait and Solve aggregate per-request queue time (only requests
	// that actually queued) and solve wall time.
	QueueWait, Solve metrics.LatencySnapshot
	// Solver aggregates the solvers' own instrumentation (iterations,
	// equilibrations, abstract operations) across every request served.
	Solver metrics.Snapshot
}

// HitRate returns the shape-pool hit fraction in [0, 1] (0 when nothing was
// checked out yet).
func (s Stats) HitRate() float64 {
	total := s.ShapeHits + s.ShapeMisses
	if total == 0 {
		return 0
	}
	return float64(s.ShapeHits) / float64(total)
}

func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "submitted=%d completed=%d failed=%d rejected=%d", s.Submitted, s.Completed, s.Failed, s.Rejected)
	fmt.Fprintf(&b, " inflight=%d/%d queued=%d/%d", s.InFlight, s.PeakInFlight, s.Queued, s.PeakQueued)
	fmt.Fprintf(&b, " hit=%.0f%% evicted=%d shapes=%d", 100*s.HitRate(), s.ArenasEvicted, len(s.Shapes))
	fmt.Fprintf(&b, " wait[%s] solve[%s]", s.QueueWait, s.Solve)
	return b.String()
}

// stats returns a consistent snapshot of the shard's counters, gauges,
// latency aggregates, and per-shape pool state.
func (s *shard) stats() Stats {
	st := Stats{
		Submitted:    s.submitted.Load(),
		Completed:    s.completed.Load(),
		Failed:       s.failed.Load(),
		Rejected:     s.rejected.Load(),
		InFlight:     s.inFlight.Level(),
		PeakInFlight: s.inFlight.High(),
		Queued:       s.queued.Level(),
		PeakQueued:   s.queued.High(),
		QueueWait:    s.waitLat.Snapshot(),
		Solve:        s.solveLat.Snapshot(),
		Solver:       s.counters.Snapshot(),
	}
	s.mu.Lock()
	type ranked struct {
		stats   ShapeStats
		lastUse uint64
	}
	pools := make([]ranked, 0, len(s.shapes))
	for _, sp := range s.shapes {
		pools = append(pools, ranked{
			stats: ShapeStats{
				M: sp.key.m, N: sp.key.n, General: sp.key.general,
				CSR: sp.key.csr, Nnz: sp.key.nnz,
				Arenas: sp.total, Idle: len(sp.free),
				Hits: sp.hits, Misses: sp.misses, Evicted: sp.evicted,
			},
			lastUse: sp.lastUse,
		})
	}
	s.mu.Unlock()
	st.ShapeHits = s.hits.Load()
	st.ShapeMisses = s.misses.Load()
	st.ArenasEvicted = s.evictions.Load()
	sort.Slice(pools, func(i, j int) bool { return pools[i].lastUse > pools[j].lastUse })
	for _, r := range pools {
		st.Shapes = append(st.Shapes, r.stats)
	}
	return st
}
