package sea

import (
	"context"
	"time"
)

// Option is a functional configuration knob for SolveWith and NewSession —
// the preferred way to configure a solve without mutating the many-field
// Options struct directly:
//
//	sol, err := sea.SolveWith(ctx, p,
//		sea.WithSolver("sea"),
//		sea.WithObjective(sea.ObjectiveEntropy),
//		sea.WithDeadline(time.Now().Add(time.Minute)),
//	)
//
// Passing a *Options (via WithOptions) remains fully supported for callers
// that already hold one; later options override the fields it set.
type Option func(*solveConfig)

// solveConfig is the resolved configuration of a SolveWith call or a Session.
type solveConfig struct {
	solver      string
	opts        Options
	hasDeadline bool
	deadline    time.Time
	warmDuals   bool
}

func newSolveConfig(options []Option) *solveConfig {
	c := &solveConfig{solver: "sea", opts: *DefaultOptions()}
	for _, opt := range options {
		if opt != nil {
			opt(c)
		}
	}
	return c
}

// context applies the configured deadline, if any, returning the derived
// context and its cancel func (a no-op when no deadline is set).
func (c *solveConfig) context(ctx context.Context) (context.Context, context.CancelFunc) {
	if !c.hasDeadline {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, c.deadline)
}

// WithOptions seeds the configuration from an existing *Options value (nil is
// ignored). Options appearing after it override individual fields; options
// before it are overwritten wholesale — put WithOptions first.
func WithOptions(o *Options) Option {
	return func(c *solveConfig) {
		if o != nil {
			c.opts = *o
		}
	}
}

// WithSolver selects the registry solver by name (default "sea").
func WithSolver(name string) Option {
	return func(c *solveConfig) { c.solver = name }
}

// WithObjective selects the objective family to minimize. ObjectiveEntropy
// routes through the "entropy" solver when the solver is "sea".
func WithObjective(obj Objective) Option {
	return func(c *solveConfig) { c.opts.Objective = obj }
}

// WithPrecondition selects the preconditioning stage run before the SEA
// sweeps. The ISP warm start (PrecondISP) still pays on elastic totals,
// such as spatial price equilibria: its sweeps cost about an eighth of an
// iteration each and leave SEA one, 3–4× faster than SEA alone there. On
// balanced SAMs SEA's own over-relaxed iterations are 2–3× faster than the
// stage (docs/PERFORMANCE.md, "Over-relaxed SEA"), so leave it off.
func WithPrecondition(pc Precond) Option {
	return func(c *solveConfig) { c.opts.Precondition = pc }
}

// WithTrace attaches a per-iteration observer.
func WithTrace(tr Trace) Option {
	return func(c *solveConfig) { c.opts.Trace = tr }
}

// WithDeadline bounds the solve's wall time: SolveWith derives a
// context.WithDeadline child for the call, so the solver returns its last
// consistent iterate with context.DeadlineExceeded once t passes. A
// deadline that passes inside the PrecondISP warm start returns
// context.DeadlineExceeded and no solution, since SEA has no iterate yet.
func WithDeadline(t time.Time) Option {
	return func(c *solveConfig) {
		c.hasDeadline = true
		c.deadline = t
	}
}

// WithEpsilon sets the convergence tolerance.
func WithEpsilon(eps float64) Option {
	return func(c *solveConfig) { c.opts.Epsilon = eps }
}

// WithMaxIterations caps the outer iterations.
func WithMaxIterations(n int) Option {
	return func(c *solveConfig) { c.opts.MaxIterations = n }
}

// WithProcs sets the parallel worker count for the equilibration phases.
func WithProcs(n int) Option {
	return func(c *solveConfig) { c.opts.Procs = n }
}

// WithDualWarmStart controls a Session's chaining of dual variables: when
// enabled, each period's solve seeds its column multipliers (Options.Mu0)
// from the previous period's converged duals, typically cutting iterations on
// slowly drifting sequences. Disabled by default: the default session chains
// only arena-owned state, which is bit-identical to solving each period cold.
// It has no effect on a one-shot SolveWith.
func WithDualWarmStart(on bool) Option {
	return func(c *solveConfig) { c.warmDuals = on }
}

// SolveWith runs a solve configured by functional options — equivalent to
// Solve(ctx, solver, p, opts) with the assembled Options.
func SolveWith(ctx context.Context, p *Problem, options ...Option) (*Solution, error) {
	c := newSolveConfig(options)
	ctx, cancel := c.context(ctx)
	defer cancel()
	return Solve(ctx, c.solver, p, &c.opts)
}
