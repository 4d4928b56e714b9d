package core

import (
	"fmt"

	"sea/internal/parallel"
	"sea/internal/trace"
)

// Precond selects the preconditioning stage run before the diagonal
// solver's SEA sweeps (Options.Precondition).
type Precond int

const (
	// PrecondNone disables preconditioning (the default).
	PrecondNone Precond = iota
	// PrecondScale rescales the problem by global power-of-two mass and
	// weight factors (σ, τ) chosen from the data's magnitude, solves the
	// scaled problem, and unscales the solution. Because the factors are
	// powers of two and the scaled KKT system is an exact relabeling of the
	// original, the unscaled solution is bit-for-bit identical to the
	// unpreconditioned one — this mode exists to tame overflow/underflow
	// on badly ranged data, not to cut iterations.
	PrecondScale
	// PrecondISP additionally warm-starts the dual with the iterative
	// scaling procedure: clamped additive Gauss–Seidel sweeps on the exact
	// KKT system (internal/scale.System), the same dual block-coordinate
	// ascent as a SEA iteration at a fraction of its cost. The stage runs
	// for at most MaxIterations sweeps, until its exact sweeps stall or its
	// residual meets the solve's own criterion, so it often leaves SEA a
	// single outer iteration (see docs/PERFORMANCE.md).
	PrecondISP
)

func (p Precond) String() string {
	switch p {
	case PrecondNone:
		return "none"
	case PrecondScale:
		return "scale"
	case PrecondISP:
		return "isp"
	default:
		return "unknown"
	}
}

// ParsePrecond maps the flag/query spellings to a Precond value.
func ParsePrecond(s string) (Precond, error) {
	switch s {
	case "", "none":
		return PrecondNone, nil
	case "scale":
		return PrecondScale, nil
	case "isp":
		return PrecondISP, nil
	default:
		return PrecondNone, fmt.Errorf("unknown precondition %q (want none, scale or isp)", s)
	}
}

// Objective selects the objective family a solve minimizes. The problem
// data (prior, weights, totals, bounds) is shared between the families; only
// the distance-to-prior measure changes.
type Objective int

const (
	// ObjectiveQuadratic is the paper's weighted least-squares objective
	// Σ γ_ij (x_ij−x⁰_ij)² (+ the elastic totals terms) — the default, and
	// what every solver except "entropy" minimizes.
	ObjectiveQuadratic Objective = iota
	// ObjectiveEntropy is the weighted generalized Kullback–Leibler
	// divergence to the prior, Σ γ_ij (x_ij·ln(x_ij/x⁰_ij) − x_ij + x⁰_ij),
	// with the same quadratic penalties on elastic totals. It requires a
	// nonnegative prior; cells with x⁰_ij = 0 are pinned at zero (the KL
	// term is +∞ for any positive value there). This is Oikonomou's
	// "most likely matrix" model; with fixed totals and a positive prior it
	// is the biproportional (RAS/Sinkhorn) limit. Solved by the "entropy"
	// registry solver (baseline.SolveEntropy: generalized iterative scaling,
	// internal/scale's exponential response).
	ObjectiveEntropy
)

func (o Objective) String() string {
	switch o {
	case ObjectiveQuadratic:
		return "quadratic"
	case ObjectiveEntropy:
		return "entropy"
	default:
		return "unknown"
	}
}

// ParseObjective maps the flag/query/wire spellings to an Objective value.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "quadratic":
		return ObjectiveQuadratic, nil
	case "entropy", "kl":
		return ObjectiveEntropy, nil
	default:
		return ObjectiveQuadratic, fmt.Errorf("unknown objective %q (want quadratic or entropy)", s)
	}
}

// Criterion selects the convergence test used by the diagonal solver.
type Criterion int

const (
	// MaxAbsDelta terminates when |x^t_ij − x^{t−1}_ij| ≤ ε for all i,j —
	// the test of the paper's Section 3.1.1 (Step 3).
	MaxAbsDelta Criterion = iota
	// RelBalance terminates when |Σ_j x_ij − s_i| / |s_i| ≤ ε for all
	// rows — the test of Section 3.1.2 (Step 3); a row with |s_i| ≤ 1e-12
	// is tested on its absolute residual. Column constraints hold exactly
	// after each column equilibration, so only row residuals are checked.
	RelBalance
	// DualGradient terminates when ‖∇ζ‖∞ ≤ ε, i.e. the absolute constraint
	// residuals are at most ε — the theoretical criterion (27)/(43)/(52).
	DualGradient
)

func (c Criterion) String() string {
	switch c {
	case MaxAbsDelta:
		return "max-abs-delta"
	case RelBalance:
		return "rel-balance"
	case DualGradient:
		return "dual-gradient"
	default:
		return "unknown"
	}
}

// Options configures a solve. The zero value is not usable; call
// DefaultOptions and override fields.
type Options struct {
	// Epsilon is the convergence tolerance ε.
	Epsilon float64
	// Criterion selects the convergence test.
	Criterion Criterion
	// Objective selects the objective family (quadratic by default). The
	// core SEA solvers minimize the quadratic objective only; the pkg/sea
	// facade routes ObjectiveEntropy to the "entropy" solver, and handing
	// an entropy objective directly to SolveDiagonal/SolveGeneral is an
	// error rather than a silent wrong answer.
	Objective Objective
	// CheckEvery verifies convergence only every k-th iteration. The paper
	// checks every iteration for the fixed examples and every other
	// iteration for the elastic ones, noting the check is a serial phase.
	CheckEvery int
	// ParallelConvCheck computes the convergence verification's row sums
	// (or deltas) in parallel instead of serially — the enhancement the
	// paper suggests at the end of Section 4.2. The residual reduction
	// remains serial but is O(m) instead of O(m·n).
	ParallelConvCheck bool
	// MaxIterations caps the number of row+column sweeps (diagonal solver)
	// or projection steps (general solver).
	MaxIterations int
	// Procs is the number of workers for the parallel row and column
	// phases (the paper's N CPUs). 1 means serial.
	Procs int
	// Runner, if non-nil, is a persistent worker pool shared across many
	// solves, whose lifecycle the caller owns; its Workers() replaces Procs.
	// When nil the solver creates a pool of Procs workers for the duration
	// of the solve (or keeps one in the Arena) and tears it down on return.
	// The pool's partition is disjoint and fixed by the worker count, so
	// results never depend on this choice (see docs/PERFORMANCE.md).
	Runner *parallel.Pool
	// Mu0, if non-nil, warm-starts the column multipliers (length N).
	// Otherwise μ¹ = 0 per the paper's initialization step. A caller's Mu0
	// wins over the PrecondISP warm-start estimate: the stage then only
	// rescales the problem and Mu0 with it.
	Mu0 []float64
	// Precondition selects a preconditioning stage run before the SEA
	// sweeps: the solver rescales the problem data by exact power-of-two
	// factors (and, for PrecondISP, computes a dual warm start on the
	// scaled data), solves, and unscales the solution so that it
	// satisfies the ORIGINAL problem's KKT system. Time spent here is
	// reported in Solution.PrecondNs. Applies to the diagonal solver only;
	// the general solver's inner diagonal solves never precondition.
	Precondition Precond
	// Trace, if non-nil, receives one trace.Event per outer iteration:
	// iteration index, convergence residual, wall-clock phase timings, and
	// the iteration's own equilibration and operation counts. It is the
	// only instrumentation hook: attach a *metrics.Counters to sum the
	// counts, or a *parsim.Recorder to collect the per-task costs of the
	// simulated-multiprocessor experiments (solvers fill Event.Costs only
	// for observers that ask, see trace.WantsCosts). A nil Trace costs one
	// pointer comparison per iteration.
	Trace trace.Observer
	// BoundMultipliers enables the paper's Modified Algorithm: when a
	// multiplier exceeds MultiplierBound in absolute value, its support-
	// graph connected component is renormalized (a constant added to its
	// λ's and subtracted from its μ's), keeping iterates in a bounded set
	// without changing ζ. Applies to the Balanced and FixedTotals duals.
	BoundMultipliers bool
	// MultiplierBound is the paper's R > 0 (used when BoundMultipliers).
	MultiplierBound float64

	// Inner options for the general solver's diagonal subproblems.
	// InnerEpsilon defaults to Epsilon/10; InnerMaxIterations to
	// MaxIterations.
	InnerEpsilon       float64
	InnerMaxIterations int
	// Relaxation is the projection-method step scaling ρ ∈ (0,1]; the
	// fixed diagonal of the subproblem is diag(G)/ρ. 1 reproduces the
	// paper's subproblem (79).
	Relaxation float64
	// SkipDominanceCheck disables the strict-diagonal-dominance validation
	// of general problems. Checking a dense 14400×14400 G costs a full
	// scan; generators that construct dominant matrices by design may skip
	// it.
	SkipDominanceCheck bool

	// Arena, if non-nil, supplies reusable solver state for steady-state
	// workloads: back-to-back solves on same-shape problems reuse every
	// working buffer, the worker pool (when Runner is nil), and the kernel's
	// warm-start permutations, reaching (near) zero allocations per solve.
	// The returned Solution then aliases arena-owned memory — valid until
	// the next solve on the same arena. See Arena.
	Arena *Arena

	// pinOmega keeps the diagonal solver's SEA iterations plain (ω = 1);
	// see PinOmega.
	pinOmega bool
}

// PinOmega makes the diagonal solver run the paper's plain SEA: it never
// over-relaxes its iterations (see SolveDiagonal), so iteration counts and
// iterates are the plain algorithm's. The reproduced paper tables use it.
// The field it sets is unexported and the facade does not re-export
// PinOmega, so it is no public option.
func PinOmega(o *Options) *Options {
	o.pinOmega = true
	return o
}

// DefaultOptions returns the options used throughout the paper's
// experiments: ε = .001, the relative-balance criterion, convergence checked
// every iteration, serial execution.
func DefaultOptions() *Options {
	return &Options{
		Epsilon:       1e-3,
		Criterion:     RelBalance,
		CheckEvery:    1,
		MaxIterations: 100000,
		Procs:         1,
		Relaxation:    1,
	}
}

// WithDefaults returns a copy of o with every unset field filled. A nil o
// means DefaultOptions, filled the same way. Every solver sharing Options —
// the SEA solvers and the baselines — resolves its options here.
func (o *Options) WithDefaults() *Options {
	if o == nil {
		o = DefaultOptions()
	}
	out := *o
	if out.Epsilon <= 0 {
		out.Epsilon = 1e-3
	}
	if out.CheckEvery <= 0 {
		out.CheckEvery = 1
	}
	if out.MaxIterations <= 0 {
		out.MaxIterations = 100000
	}
	if out.Procs <= 0 {
		out.Procs = 1
	}
	if out.Relaxation <= 0 || out.Relaxation > 1 {
		out.Relaxation = 1
	}
	if out.InnerEpsilon <= 0 {
		out.InnerEpsilon = out.Epsilon / 10
	}
	if out.InnerMaxIterations <= 0 {
		out.InnerMaxIterations = out.MaxIterations
	}
	if out.BoundMultipliers && out.MultiplierBound <= 0 {
		out.MultiplierBound = 1e12
	}
	return &out
}
