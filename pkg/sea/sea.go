// Package sea is the public facade of the splitting equilibration module:
// one problem type, one Solver interface, and a name-based registry covering
// every algorithm the repository implements — the SEA diagonal and general
// solvers, the RC and Bachem–Korte baselines, Dykstra's alternating
// projections, projected gradient, RAS biproportional scaling, and the
// unsigned (Stone/Byron) estimator.
//
// The paper frames these as interchangeable solvers for the same constrained
// matrix problem (its Section 5 compares SEA, RC and B-K head to head), and
// the facade makes that literal:
//
//	p, err := sea.NewDiagonal(diag)                    // or sea.NewGeneral
//	ctx, cancel := context.WithTimeout(ctx, time.Minute)
//	defer cancel()
//	sol, err := sea.Solve(ctx, "sea", p, sea.DefaultOptions())
//
// Failures wrap the package's sentinel errors (ErrUnknownSolver,
// ErrInvalidProblem, ErrNotConverged, ErrInfeasible, ErrSaturated) and every
// registry solve stamps Solution.Status with the explicit outcome; see
// errors.go and docs/API.md. For concurrent serving over pooled solver
// state, see the pkg/sea/serve subpackage.
//
// Every solver accepts a context.Context and observes cancellation between
// iterations, returning the last consistent iterate together with ctx.Err().
// Per-iteration progress is reported through the pluggable Trace observer in
// Options (see the Trace and TraceEvent aliases); a nil observer costs one
// pointer comparison per iteration.
//
// The layering below this package is documented in docs/ARCHITECTURE.md:
// pkg/sea (facade, registry) → internal/core + internal/baseline (solve
// loops) → internal/equilibrate (subproblem kernels) and internal/parallel
// (scheduling substrate) → internal/mat (dense/sparse primitives).
package sea

import (
	"errors"
	"fmt"
	"io"

	"sea/internal/core"
	"sea/internal/mat"
	"sea/internal/trace"
)

// Re-exported problem, option and result types. The facade's aliases are the
// supported import path for callers outside this module; the internal
// packages they point at are not importable directly.
type (
	// Options configures a solve; see core.Options for field semantics.
	Options = core.Options
	// Solution is a solve's result.
	Solution = core.Solution
	// DiagonalProblem is the diagonal quadratic constrained matrix problem.
	DiagonalProblem = core.DiagonalProblem
	// GeneralProblem is the dense-weight quadratic constrained matrix
	// problem.
	GeneralProblem = core.GeneralProblem
	// Kind selects the treatment of the row and column totals.
	Kind = core.Kind
	// Status classifies a solve's outcome (see Solution.Status).
	Status = core.Status
	// Precond selects the preconditioning stage run before the diagonal
	// solver's SEA sweeps (Options.Precondition).
	Precond = core.Precond
	// Objective selects the objective family a solve minimizes
	// (Options.Objective): the paper's weighted least squares, or the
	// KL/entropy divergence to the prior.
	Objective = core.Objective
	// KKTReport quantifies KKT satisfaction of a candidate solution (see
	// CheckKKT in the core); re-exported for callers verifying solutions.
	KKTReport = core.KKTReport
	// Trace is the pluggable per-iteration observer (Options.Trace).
	Trace = trace.Observer
	// TraceEvent is one observed iteration's progress report.
	TraceEvent = trace.Event
	// TraceFunc adapts a function to the Trace interface.
	TraceFunc = trace.Func
	// TraceCollector retains every observed event, for tests and analysis.
	TraceCollector = trace.Collector
)

// Problem kinds, re-exported from the core.
const (
	FixedTotals    = core.FixedTotals
	ElasticTotals  = core.ElasticTotals
	Balanced       = core.Balanced
	IntervalTotals = core.IntervalTotals
)

// Convenience criterion and kernel constants.
const (
	MaxAbsDelta  = core.MaxAbsDelta
	RelBalance   = core.RelBalance
	DualGradient = core.DualGradient
)

// Preconditioning modes (Options.Precondition); see core.Precond.
const (
	PrecondNone  = core.PrecondNone
	PrecondScale = core.PrecondScale
	PrecondISP   = core.PrecondISP
)

// ParsePrecond maps the flag/query spellings ("none", "scale", "isp") to a
// Precond value.
var ParsePrecond = core.ParsePrecond

// Objective families (Options.Objective); see core.Objective. The facade
// routes: Solve(ctx, "sea", p, opts) with ObjectiveEntropy delegates to the
// "entropy" solver, while the remaining quadratic-only solvers reject the
// entropy objective with ErrInvalidProblem rather than silently minimizing
// the wrong function. The scaling baselines "ras" and "sinkhorn" accept
// both (they are entropy solvers by construction) and report the requested
// family's objective value.
const (
	ObjectiveQuadratic = core.ObjectiveQuadratic
	ObjectiveEntropy   = core.ObjectiveEntropy
)

// ParseObjective maps the flag/query/wire spellings ("quadratic", "entropy",
// "kl") to an Objective value.
var ParseObjective = core.ParseObjective

// CheckKKT evaluates the KKT conditions of sol for the diagonal problem p
// under the quadratic objective; CheckKKTObjective selects the family —
// convexity makes KKT satisfaction a certificate of global optimality, so
// these are the solver-independent verification hooks.
var (
	CheckKKT          = core.CheckKKT
	CheckKKTObjective = core.CheckKKTObjective
)

// Solve outcome statuses; see Solution.Status and the Status type.
const (
	StatusUnknown       = core.StatusUnknown
	StatusConverged     = core.StatusConverged
	StatusMaxIterations = core.StatusMaxIterations
	StatusCancelled     = core.StatusCancelled
	StatusSaturated     = core.StatusSaturated
	StatusDiverged      = core.StatusDiverged
)

// Problem constructors, re-exported from the core.
var (
	NewFixed    = core.NewFixed
	NewElastic  = core.NewElastic
	NewBalanced = core.NewBalanced
	NewInterval = core.NewInterval
)

// NewTraceWriter returns a Trace observer that prints a one-line progress
// report for every every-th observed iteration to w (every ≤ 1 prints all).
func NewTraceWriter(w io.Writer, every int) Trace { return trace.NewWriter(w, every) }

// MultiTrace fans events out to several observers.
func MultiTrace(obs ...Trace) Trace { return trace.Multi(obs...) }

// DefaultOptions returns the options used throughout the paper's
// experiments: ε = .001, the relative-balance criterion, convergence checked
// every iteration, serial execution.
func DefaultOptions() *Options { return core.DefaultOptions() }

// Problem is the facade's unified problem: exactly one of Diagonal or
// General is set. Registered solvers declare which representation they
// need; a diagonal problem is lifted to an equivalent general one on demand
// (diagonal weight matrices), while a general problem handed to a
// diagonal-only solver is an error — dense weights carry information a
// diagonal solver cannot use.
type Problem struct {
	Diagonal *DiagonalProblem
	General  *GeneralProblem
}

// Auto-sparsification thresholds for NewDiagonal: a dense problem is
// converted to CSR over its support when it is large enough for the layout
// to matter and sparse enough for the conversion to pay. Small or mostly
// dense problems keep the dense hot path.
const (
	autoSparsifyMinCells   = 1 << 14
	autoSparsifyMaxDensity = 0.25
)

// NewDiagonal wraps a diagonal problem for the registry, validating it up
// front so malformed problems fail at construction rather than inside Solve.
// The returned error wraps ErrInvalidProblem.
//
// Large dense problems whose bounds pin most cells at zero (support density
// ≤ 25% with at least 2¹⁴ cells) are converted to CSR storage automatically:
// the solve is bit-identical, but the returned Problem's Diagonal carries a
// Pattern and Solution.X comes back in stored (support) order with length
// nnz. Use NewDiagonalDense to opt out, or NewDiagonalCSR to force the
// conversion regardless of size.
func NewDiagonal(d *DiagonalProblem) (*Problem, error) {
	p := &Problem{Diagonal: d}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d.Pattern == nil && d.Upper != nil && d.M*d.N >= autoSparsifyMinCells &&
		d.SupportDensity() <= autoSparsifyMaxDensity {
		sp, err := d.Sparsify()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidProblem, err)
		}
		p.Diagonal = sp
	}
	return p, nil
}

// NewDiagonalDense wraps a diagonal problem for the registry with the dense
// layout kept as given — the explicit opt-out from NewDiagonal's density
// auto-detection. A problem that already carries CSR storage is rejected.
func NewDiagonalDense(d *DiagonalProblem) (*Problem, error) {
	p := &Problem{Diagonal: d}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d.Pattern != nil {
		return nil, fmt.Errorf("%w: NewDiagonalDense requires dense storage; call Densify() first or use NewDiagonal", ErrInvalidProblem)
	}
	return p, nil
}

// NewDiagonalCSR wraps a diagonal problem for the registry in CSR storage: a
// dense problem is converted over its support (the cells not pinned at zero
// by an Upper bound of 0), a CSR problem is validated and used as is. The
// solve is bit-identical to the dense form; Solution.X is in stored order
// with length Pattern.Nnz().
func NewDiagonalCSR(d *DiagonalProblem) (*Problem, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: nil problem", ErrInvalidProblem)
	}
	sp, err := d.Sparsify() // validates; returns d unchanged when already CSR
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidProblem, err)
	}
	return &Problem{Diagonal: sp}, nil
}

// NewGeneral wraps a general (dense-weight) problem for the registry,
// validating it up front. The returned error wraps ErrInvalidProblem.
func NewGeneral(g *GeneralProblem) (*Problem, error) {
	p := &Problem{General: g}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks that exactly one representation is present and valid.
// Every failure wraps ErrInvalidProblem (infeasibilities additionally wrap
// ErrInfeasible through the representation's own validation).
func (p *Problem) Validate() error {
	if err := p.checkStructure(); err != nil {
		return err
	}
	var err error
	if p.Diagonal != nil {
		err = p.Diagonal.Validate()
	} else {
		err = p.General.Validate(true)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidProblem, err)
	}
	return nil
}

// checkStructure runs Validate's structural checks alone: a non-nil problem
// carrying exactly one representation.
func (p *Problem) checkStructure() error {
	switch {
	case p == nil:
		return fmt.Errorf("%w: nil problem", ErrInvalidProblem)
	case p.Diagonal == nil && p.General == nil:
		return fmt.Errorf("%w: neither a diagonal nor a general representation is set", ErrInvalidProblem)
	case p.Diagonal != nil && p.General != nil:
		return fmt.Errorf("%w: both a diagonal and a general representation are set; set exactly one", ErrInvalidProblem)
	}
	return nil
}

// wrapValidation wraps a diagonal problem's validation error (a
// *core.ValidationError anywhere in err's chain) in ErrInvalidProblem, as
// Validate does, and passes any other error through unchanged. errors.As runs only on a failure: its target escapes to the
// heap, and a successful solve must not allocate for it.
func wrapValidation(err error) error {
	if err == nil || !isValidation(err) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrInvalidProblem, err)
}

func isValidation(err error) bool {
	var ve *core.ValidationError
	return errors.As(err, &ve)
}

// Size returns the problem's matrix dimensions.
func (p *Problem) Size() (m, n int) {
	if p.Diagonal != nil {
		return p.Diagonal.M, p.Diagonal.N
	}
	if p.General != nil {
		return p.General.M, p.General.N
	}
	return 0, 0
}

// asDiagonal returns the diagonal representation or an error naming the
// solver that needed it.
func (p *Problem) asDiagonal(solver string) (*DiagonalProblem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Diagonal == nil {
		return nil, fmt.Errorf("%w: solver %q requires a diagonal problem; general problems carry dense weights it cannot use (try \"sea-general\" or \"rc\")", ErrInvalidProblem, solver)
	}
	return p.Diagonal, nil
}

// structuralDiagonal is asDiagonal for a solve that validates the diagonal
// problem's values itself (core.SolveDiagonal): only the structure is
// checked here. A general problem still gets asDiagonal's full check, so its
// error is the same as before.
func (p *Problem) structuralDiagonal(solver string) (*DiagonalProblem, error) {
	if err := p.checkStructure(); err != nil {
		return nil, err
	}
	if p.Diagonal == nil {
		return p.asDiagonal(solver)
	}
	return p.Diagonal, nil
}

// asDiagonalDense returns the diagonal representation for a solver whose
// implementation assumes the dense layout, rejecting CSR storage with an
// actionable error instead of letting the solver index out of bounds.
func (p *Problem) asDiagonalDense(solver string) (*DiagonalProblem, error) {
	d, err := p.asDiagonal(solver)
	if err != nil {
		return nil, err
	}
	if d.Pattern != nil {
		return nil, fmt.Errorf("%w: solver %q supports dense storage only; use \"sea\" for CSR problems or call Densify() first", ErrInvalidProblem, solver)
	}
	return d, nil
}

// asGeneral returns the general representation, lifting a diagonal problem
// to its exact general equivalent (diagonal weight matrices) when needed.
// CSR diagonal problems are rejected: the general form is dense by
// definition, and silently densifying could allocate m·n cells behind the
// caller's back.
func (p *Problem) asGeneral(solver string) (*GeneralProblem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.General != nil {
		return p.General, nil
	}
	if p.Diagonal.Pattern != nil {
		return nil, fmt.Errorf("%w: solver %q requires the dense general form; use \"sea\" for CSR problems or call Densify() first", ErrInvalidProblem, solver)
	}
	return liftDiagonal(p.Diagonal)
}

// liftDiagonal embeds a diagonal problem into the general form: the same
// objective with G = diag(γ), A = diag(α), B = diag(β). The lift is exact —
// both problems have identical optima — so diagonal problems are solvable by
// every general-problem algorithm in the registry.
func liftDiagonal(d *DiagonalProblem) (*GeneralProblem, error) {
	g := &GeneralProblem{
		M: d.M, N: d.N,
		X0: d.X0,
		S0: d.S0, D0: d.D0,
		SLo: d.SLo, SHi: d.SHi, DLo: d.DLo, DHi: d.DHi,
		Upper: d.Upper,
		Lower: d.Lower,
		Kind:  d.Kind,
	}
	var err error
	if g.G, err = mat.NewDiagonal(d.Gamma); err != nil {
		return nil, fmt.Errorf("sea: lifting diagonal problem: %w", err)
	}
	if d.Alpha != nil {
		if g.A, err = mat.NewDiagonal(d.Alpha); err != nil {
			return nil, fmt.Errorf("sea: lifting diagonal problem: %w", err)
		}
	}
	if d.Beta != nil {
		if g.B, err = mat.NewDiagonal(d.Beta); err != nil {
			return nil, fmt.Errorf("sea: lifting diagonal problem: %w", err)
		}
	}
	return g, nil
}
