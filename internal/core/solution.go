package core

// Status is a solve's explicit outcome, so callers need not infer it from
// the (error, Converged, Iterations) triple. The zero value StatusUnknown
// marks a Solution whose producer predates (or bypasses) the status
// protocol; the pkg/sea facade fills it in for every registry solve.
type Status int

const (
	// StatusUnknown: the producer did not classify the outcome.
	StatusUnknown Status = iota
	// StatusConverged: the convergence criterion was met.
	StatusConverged
	// StatusMaxIterations: the iteration limit was exhausted first; the
	// Solution is the best iterate found (the error wraps ErrNotConverged).
	StatusMaxIterations
	// StatusCancelled: the context was cancelled or its deadline passed; the
	// Solution is the last consistent iterate (the error is ctx.Err()).
	StatusCancelled
	// StatusSaturated: the serving layer rejected the request before any
	// solve ran (admission control; the error wraps the facade's
	// ErrSaturated). No solver sets this — only pkg/sea/serve.
	StatusSaturated
	// StatusDiverged: the iterates left the finite range before the
	// criterion was met (a dual-scaling solve on an infeasible box), so the
	// solve stopped early; the Solution is the last iterate (the error
	// wraps ErrDiverged and ErrNotConverged).
	StatusDiverged
)

func (s Status) String() string {
	switch s {
	case StatusConverged:
		return "converged"
	case StatusMaxIterations:
		return "max-iterations"
	case StatusCancelled:
		return "cancelled"
	case StatusSaturated:
		return "saturated"
	case StatusDiverged:
		return "diverged"
	default:
		return "unknown"
	}
}

// Solution holds the result of a solve.
type Solution struct {
	// X is the matrix estimate (m×n row-major).
	X []float64
	// S and D are the row and column total estimates. For FixedTotals they
	// equal the given totals; for Balanced, D equals S (shared totals).
	S, D []float64
	// Lambda and Mu are the Lagrange multipliers of the row and column
	// constraints — the dual variables the algorithm ascends.
	Lambda, Mu []float64

	// Iterations is the number of row+column sweeps performed (diagonal
	// solver) or projection steps (general solver, which also reports the
	// total inner sweeps in InnerIterations).
	Iterations      int
	InnerIterations int
	// Converged reports whether the convergence criterion was met.
	Converged bool
	// Status classifies the outcome explicitly; see Status.
	Status Status
	// Residual is the final value of the convergence measure.
	Residual float64
	// Objective is the objective value at X (and S, D), evaluated under the
	// ObjectiveKind family.
	Objective float64
	// ObjectiveKind is the objective family Objective was evaluated under:
	// ObjectiveQuadratic for every solver except "entropy" (and the scaling
	// baselines when an entropy objective was requested).
	ObjectiveKind Objective
	// DualValue is ζ_l(λ, μ); at the optimum it equals Objective (strong
	// duality), so Objective − DualValue is a computable optimality gap.
	DualValue float64
	// PrecondNs is the wall-clock nanoseconds spent in the preconditioning
	// stage (scaling plus dual warm start); zero when Options.Precondition
	// is PrecondNone.
	PrecondNs int64
	// PrecondSweeps is the number of sweeps the preconditioning stage's
	// ISP warm start ran; zero without a warm start.
	PrecondSweeps int
}

// Gap returns the duality gap Objective − DualValue (nonnegative up to
// rounding; near zero at the optimum).
func (s *Solution) Gap() float64 { return s.Objective - s.DualValue }

// Clone returns a deep copy whose slices share no memory with s. It is how
// a caller detaches an arena-backed Solution (which aliases arena memory
// valid only until the next solve on that arena) from its arena.
func (s *Solution) Clone() *Solution {
	if s == nil {
		return nil
	}
	out := &Solution{}
	s.CopyInto(out)
	return out
}

// CopyInto deep-copies s into dst, reusing dst's slice capacity when it
// suffices — the zero-allocation steady-state path for serving loops that
// drain many same-shape results into one caller-owned Solution.
func (s *Solution) CopyInto(dst *Solution) {
	dst.X = resizeF(dst.X, len(s.X))
	dst.S = resizeF(dst.S, len(s.S))
	dst.D = resizeF(dst.D, len(s.D))
	copy(dst.X, s.X)
	copy(dst.S, s.S)
	copy(dst.D, s.D)
	if s.Lambda == nil {
		dst.Lambda = nil
	} else {
		dst.Lambda = resizeF(dst.Lambda, len(s.Lambda))
		copy(dst.Lambda, s.Lambda)
	}
	if s.Mu == nil {
		dst.Mu = nil
	} else {
		dst.Mu = resizeF(dst.Mu, len(s.Mu))
		copy(dst.Mu, s.Mu)
	}
	dst.Iterations = s.Iterations
	dst.InnerIterations = s.InnerIterations
	dst.Converged = s.Converged
	dst.Status = s.Status
	dst.Residual = s.Residual
	dst.Objective = s.Objective
	dst.ObjectiveKind = s.ObjectiveKind
	dst.DualValue = s.DualValue
	dst.PrecondNs = s.PrecondNs
	dst.PrecondSweeps = s.PrecondSweeps
}
