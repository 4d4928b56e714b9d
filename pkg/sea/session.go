package sea

import (
	"context"
	"fmt"
	"sync"
)

// Session solves an ordered stream of same-shape problems — a temporal
// sequence of monthly trade or migration tables — chaining warm state from
// each period into the next:
//
//	s := sea.NewSession(sea.WithSolver("sea"))
//	defer s.Close()
//	for _, p := range periods {
//		sol, err := s.Solve(ctx, p) // sol is detached; keep it as long as needed
//		...
//	}
//
// By default a session chains only arena-owned state (buffers, worker pool,
// kernel warm-start permutations), so every period's solution is bit-identical
// to solving it cold — the reuse buys allocation-free steady state, not a
// different answer. Opting in with WithDualWarmStart(true) additionally seeds
// each solve's column multipliers from the previous period's converged duals,
// which cuts iterations on slowly drifting sequences at the cost of the
// bit-identity-to-cold guarantee (the answers still converge to the same
// optimum within tolerance, and remain KKT-valid).
//
// The first Solve pins the session's problem shape; later periods must match
// it (same M×N), since the chained state is shape-specific. Unlike a raw
// Arena solve, Session.Solve returns a detached copy of the solution, safe to
// retain across periods. A Session serializes its solves internally; callers
// may share one across goroutines, but the solves run one at a time.
type Session struct {
	mu     sync.Mutex
	cfg    *solveConfig
	arena  *Arena
	prevMu []float64
	m, n   int
	stats  SessionStats
	closed bool
}

// SessionStats summarizes a session's work so far.
type SessionStats struct {
	// Periods is the number of completed Solve calls (successful or not).
	Periods int
	// TotalIterations sums the outer iterations across all periods.
	TotalIterations int
	// M, N is the pinned problem shape (0 before the first solve).
	M, N int
	// WarmDuals reports whether dual warm starts are enabled.
	WarmDuals bool
}

// NewSession creates a session configured by the same functional options as
// SolveWith (solver, objective, tolerance, deadline per period, dual warm
// starts). Close releases the chained state.
func NewSession(options ...Option) *Session {
	return &Session{cfg: newSolveConfig(options), arena: NewArena()}
}

// Solve runs the next period of the sequence. The returned Solution is a
// detached copy (it does not alias session-owned memory).
func (s *Session) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	// The "sea" solver validates a diagonal problem's values itself, once,
	// in core.SolveDiagonal; every other problem and solver is validated
	// here.
	solverValidates := s.cfg.solver == "sea" && p != nil && p.Diagonal != nil
	var err error
	if solverValidates {
		err = p.checkStructure()
	} else {
		err = p.Validate()
	}
	if err != nil {
		return nil, err
	}
	m, n := p.Size()
	if s.stats.Periods == 0 {
		s.m, s.n = m, n
	} else if m != s.m || n != s.n {
		// An invalid period says why it is invalid before it says it is
		// the wrong shape.
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: session is pinned to %d×%d problems, got %d×%d (sequences chain shape-specific state; start a new session)",
			ErrInvalidProblem, s.m, s.n, m, n)
	}

	o := s.cfg.opts
	o.Arena = s.arena
	if s.cfg.warmDuals && s.prevMu != nil {
		o.Mu0 = s.prevMu
	}
	ctx, cancel := s.cfg.context(ctx)
	defer cancel()
	sol, err := Solve(ctx, s.cfg.solver, p, &o)
	if err != nil && solverValidates && isValidation(err) {
		// A period that fails validation neither pins the shape nor
		// counts.
		return nil, err
	}

	s.stats.Periods++
	s.stats.M, s.stats.N = s.m, s.n
	s.stats.WarmDuals = s.cfg.warmDuals
	if sol != nil {
		s.stats.TotalIterations += sol.Iterations
		if s.cfg.warmDuals && len(sol.Mu) == n {
			s.prevMu = append(s.prevMu[:0], sol.Mu...)
		}
		// Detach before the arena's next solve reuses the backing arrays.
		sol = sol.Clone()
	}
	return sol, err
}

// Stats returns a snapshot of the session's accumulated statistics.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close releases the session's chained state (worker pool, buffers). Solving
// on a closed session returns ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.arena.Close()
	return nil
}
