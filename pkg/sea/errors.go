package sea

import (
	"errors"

	"sea/internal/core"
)

// The facade's error surface. Every failure path of the public API wraps
// one of these sentinels — a divergence wraps ErrDiverged and
// ErrNotConverged both — so callers branch with errors.Is instead of
// matching message strings:
//
//	sol, err := sea.Solve(ctx, name, p, opts)
//	switch {
//	case errors.Is(err, sea.ErrUnknownSolver):  // bad registry name
//	case errors.Is(err, sea.ErrInvalidProblem): // p failed validation
//	case errors.Is(err, sea.ErrDiverged):       // sol is the last iterate; test before ErrNotConverged
//	case errors.Is(err, sea.ErrNotConverged):   // sol is the best iterate
//	case errors.Is(err, sea.ErrInfeasible):     // empty constraint set
//	case errors.Is(err, sea.ErrSaturated):      // serving layer rejected it
//	}
//
// ErrNotConverged, ErrDiverged and ErrInfeasible originate in the solvers
// (internal/core) and are re-exported; the rest are the facade's own.
var (
	// ErrUnknownSolver is wrapped by Get/Solve/NewReusableSolver when the
	// requested name is not in the registry. The full error lists the
	// registered names.
	ErrUnknownSolver = errors.New("sea: unknown solver")
	// ErrInvalidProblem is wrapped by Problem.Validate — and therefore by
	// every solve on an invalid problem — covering nil or ambiguous
	// representations, dimension mismatches, non-finite priors, and
	// representation/solver mismatches (a general problem handed to a
	// diagonal-only solver). Infeasibility errors additionally wrap
	// ErrInfeasible.
	ErrInvalidProblem = errors.New("sea: invalid problem")
	// ErrSaturated is returned by the serving layer (pkg/sea/serve) when
	// admission control rejects a request: the in-flight limit is reached
	// and the waiting queue is full.
	ErrSaturated = errors.New("sea: server saturated")
	// ErrSessionClosed is returned by Session.Solve after Close.
	ErrSessionClosed = errors.New("sea: session closed")

	// ErrNotConverged is returned (wrapped, alongside the best iterate) when
	// the iteration limit is exhausted before the criterion is met.
	ErrNotConverged = core.ErrNotConverged
	// ErrDiverged is returned (wrapped, alongside ErrNotConverged and the
	// last iterate) when a solve stops because its iterates diverged.
	ErrDiverged = core.ErrDiverged
	// ErrInfeasible is returned when the constraint set is empty.
	ErrInfeasible = core.ErrInfeasible
	// ErrArenaBusy is returned when a single-flight Arena is handed to two
	// concurrent solves.
	ErrArenaBusy = core.ErrArenaBusy
)
