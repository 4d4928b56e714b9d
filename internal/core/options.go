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
	// PrecondSinkhorn additionally warm-starts the dual from a
	// Sinkhorn–Knopp balancing of the (positive-floored) prior: the
	// multiplicative factors are converted to additive column multipliers
	// μ⁰. Falls back to PrecondScale when the prior's structure rules
	// balancing out (zero rows/columns with positive targets).
	PrecondSinkhorn
	// PrecondISP warm-starts the dual with the iterative scaling procedure:
	// clamped additive Gauss–Seidel sweeps on the exact KKT system
	// (internal/scale.System), the cheap O(nnz)-per-sweep analogue of a SEA
	// iteration. This is the recommended mode for the elastic tiers, where
	// it cuts outer iterations severalfold (see docs/PERFORMANCE.md).
	PrecondISP
)

// DefaultPrecondSweeps is the warm-start sweep budget used when
// Options.PrecondSweeps is zero. The value is tuned on the paper tiers:
// past ~this many ISP sweeps the dual estimate's marginal iteration
// savings no longer repay the O(nnz) sweep cost — on the elastic spe250
// tier the wall-clock minimum sits near 150 sweeps (see EXPERIMENTS.md).
const DefaultPrecondSweeps = 150

func (p Precond) String() string {
	switch p {
	case PrecondNone:
		return "none"
	case PrecondScale:
		return "scale"
	case PrecondSinkhorn:
		return "sinkhorn"
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
	case "sinkhorn":
		return PrecondSinkhorn, nil
	case "isp":
		return PrecondISP, nil
	default:
		return PrecondNone, fmt.Errorf("unknown precondition %q (want none, scale, sinkhorn or isp)", s)
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
	// RelBalance terminates when |Σ_j x_ij − s_i| / max(|s_i|, 1) ≤ ε for
	// all rows — the test of Section 3.1.2 (Step 3). Column constraints
	// hold exactly after each column equilibration, so only row residuals
	// are checked.
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
	// Runner, if non-nil, supplies the scheduling substrate for the
	// parallel phases — typically a shared *parallel.Pool reused across
	// many solves, whose lifecycle the caller owns. When nil the solver
	// creates a persistent pool of Procs workers for the duration of the
	// solve and tears it down on return. Every Runner honors the same
	// disjoint-partition contract, so results never depend on this choice
	// (see docs/PERFORMANCE.md).
	Runner parallel.Runner
	// Mu0, if non-nil, warm-starts the column multipliers (length N).
	// Otherwise μ¹ = 0 per the paper's initialization step.
	Mu0 []float64
	// Precondition selects a preconditioning stage run before the SEA
	// sweeps: the solver rescales the problem data by exact power-of-two
	// factors (and, for PrecondSinkhorn/PrecondISP, computes a dual warm
	// start on the scaled data), solves, and unscales the solution so that
	// it satisfies the ORIGINAL problem's KKT system. Time spent here is
	// reported in Solution.PrecondNs. Applies to the diagonal solver only;
	// the general solver's inner diagonal solves never precondition.
	Precondition Precond
	// PrecondSweeps caps the warm-start procedure's sweeps for
	// PrecondSinkhorn/PrecondISP. 0 selects the tuned default
	// (DefaultPrecondSweeps).
	PrecondSweeps int
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

// withDefaults fills unset fields of o (nil o gets DefaultOptions).
func (o *Options) withDefaults() *Options {
	if o == nil {
		return DefaultOptions()
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
	if out.PrecondSweeps <= 0 {
		out.PrecondSweeps = DefaultPrecondSweeps
	}
	return &out
}
