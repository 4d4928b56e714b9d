package serve

import (
	"context"
	"fmt"
	"time"

	"sea/internal/trace"
	"sea/pkg/sea"
)

// SessionConfig parameterizes a server-hosted sequence session.
type SessionConfig struct {
	// Options is the session's solve-options template; nil means the
	// server's configured template. RequestOptions composes cleanly here: a
	// transport resolves its per-request overrides and hands the result (nil
	// or a detached clone) straight to NewSession.
	Options *sea.Options
	// WarmDuals chains each period's converged column duals into the next
	// solve's Mu0. Off by default: the default session chains only
	// arena-owned state, so every period is bit-identical to a cold Submit.
	WarmDuals bool
}

// Session is a server-hosted temporal sequence: an ordered stream of
// same-shape problems solved through the server's admission control, chaining
// a dedicated arena (and optionally the previous period's duals) from each
// period into the next. It is the serving-layer face of sea.Session — same
// contract, but every Solve competes for the server's in-flight slots and is
// counted in its Stats.
//
// A Session serializes its own solves; concurrent callers queue on the
// session, not in the server's admission queue. Solutions are detached
// copies, safe to retain. Close releases the chained state; the owning
// server's Close also closes any sessions still open.
type Session struct {
	srv       *Server
	warmDuals bool

	mu     chan struct{} // session-serialization token (channel, so Close can't deadlock)
	opts   sea.Options
	arena  *sea.Arena
	prevMu []float64
	m, n   int
	stats  sea.SessionStats
	closed bool
}

// NewSession opens a sequence session on the server. The session owns a
// dedicated arena outside the shape pools — chained state must survive
// between periods, which pooled arenas (reused by unrelated requests) cannot
// guarantee.
func (s *Server) NewSession(cfg SessionConfig) (*Session, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	base := s.base
	if cfg.Options != nil {
		base = *cfg.Options
		// Same per-request re-fill as submit: the server's trace, which
		// carries its counters, next to the caller's own observer.
		if base.Trace == nil {
			base.Trace = s.base.Trace
		} else {
			base.Trace = sea.MultiTrace(trace.Synchronized(base.Trace), s.base.Trace)
		}
	}
	base.Procs = s.cfg.Procs
	ses := &Session{
		srv:       s,
		warmDuals: cfg.WarmDuals,
		mu:        make(chan struct{}, 1),
		opts:      base,
		arena:     sea.NewArena(),
	}
	ses.stats.WarmDuals = cfg.WarmDuals
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ses.arena.Close()
		return nil, ErrClosed
	}
	s.sessions[ses] = struct{}{}
	s.mu.Unlock()
	return ses, nil
}

// Solve runs the next period through the server's admission control. The
// first period pins the session's shape; mismatched periods are rejected
// with sea.ErrInvalidProblem. The returned Solution is detached.
func (ses *Session) Solve(ctx context.Context, p *sea.Problem) (*sea.Solution, error) {
	if _, err := requestKey(p); err != nil {
		return nil, err
	}
	select {
	case ses.mu <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-ses.mu }()
	if ses.closed {
		return nil, sea.ErrSessionClosed
	}
	s := ses.srv
	m, n := p.Size()
	if ses.stats.Periods == 0 {
		ses.m, ses.n = m, n
	} else if m != ses.m || n != ses.n {
		return nil, fmt.Errorf("%w: session is pinned to %d×%d problems, got %d×%d (sequences chain shape-specific state; open a new session)",
			sea.ErrInvalidProblem, ses.m, ses.n, m, n)
	}

	if s.isClosed() {
		return nil, ErrClosed
	}
	s.submitted.Add(1)
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	o := ses.opts
	o.Arena = ses.arena
	if ses.warmDuals && ses.prevMu != nil {
		o.Mu0 = ses.prevMu
	}
	pool := s.pools.Get()
	o.Runner = pool

	start := time.Now()
	sol, err := s.solver.Solve(ctx, p, &o)
	s.solveLat.Observe(time.Since(start))
	s.pools.Put(pool)

	ses.stats.Periods++
	ses.stats.M, ses.stats.N = ses.m, ses.n
	if sol != nil {
		ses.stats.TotalIterations += sol.Iterations
		if ses.warmDuals && len(sol.Mu) == n {
			ses.prevMu = append(ses.prevMu[:0], sol.Mu...)
		}
		// Detach before the next period reuses the arena's backing arrays.
		sol = sol.Clone()
	}
	if err != nil {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	return sol, err
}

// Stats returns a snapshot of the session's accumulated statistics.
func (ses *Session) Stats() sea.SessionStats {
	ses.mu <- struct{}{}
	defer func() { <-ses.mu }()
	return ses.stats
}

// Close releases the session's chained arena and unregisters it from the
// server. It is idempotent; further Solves fail with sea.ErrSessionClosed.
func (ses *Session) Close() error {
	ses.mu <- struct{}{}
	defer func() { <-ses.mu }()
	if ses.closed {
		return nil
	}
	ses.closed = true
	ses.arena.Close()
	s := ses.srv
	s.mu.Lock()
	delete(s.sessions, ses)
	s.mu.Unlock()
	return nil
}
