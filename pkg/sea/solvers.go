package sea

import (
	"context"
	"errors"
	"fmt"

	"sea/internal/baseline"
	"sea/internal/core"
)

// The built-in registry: every algorithm the repository implements, behind
// the one Solver interface. Solvers that need the general form lift diagonal
// problems automatically (see liftDiagonal), so e.g. `rc` and `bk` run
// directly on the paper's Table 1–6 diagonal instances.
func init() {
	MustRegister(NewSolver("sea",
		"splitting equilibration algorithm (diagonal problems; the paper's main method)",
		func(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
			// The objective-aware front door: SEA's equilibration kernels
			// minimize the quadratic family, so an entropy objective routes
			// to the generalized-scaling solver — same problem, same
			// constraint machinery, exponential instead of affine response.
			if o != nil && o.Objective == ObjectiveEntropy {
				return solveEntropy(ctx, p, o)
			}
			// Core validates the values, once; its error gets the
			// ErrInvalidProblem wrapping Problem.Validate would give it.
			d, err := p.structuralDiagonal("sea")
			if err != nil {
				return nil, err
			}
			sol, err := core.SolveDiagonal(ctx, d, o)
			return sol, wrapValidation(err)
		}))
	MustRegister(NewSolver("sea-general",
		"SEA inside the Dafermos projection method (dense weight matrices)",
		func(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
			if err := requireQuadratic("sea-general", o); err != nil {
				return nil, err
			}
			g, err := p.asGeneral("sea-general")
			if err != nil {
				return nil, err
			}
			return core.SolveGeneral(ctx, g, o)
		}))
	MustRegister(NewSolver("rc",
		"RC equilibration algorithm of Nagurney, Kim and Robinson (1990)",
		func(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
			if err := requireQuadratic("rc", o); err != nil {
				return nil, err
			}
			g, err := p.asGeneral("rc")
			if err != nil {
				return nil, err
			}
			return baseline.SolveRC(ctx, g, o)
		}))
	MustRegister(NewSolver("bk",
		"Bachem-Korte (1978) primal cycle method over the transportation polytope",
		func(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
			if err := requireQuadratic("bk", o); err != nil {
				return nil, err
			}
			g, err := p.asGeneral("bk")
			if err != nil {
				return nil, err
			}
			return baseline.SolveBK(ctx, g, o)
		}))
	MustRegister(NewSolver("dykstra",
		"Dykstra's alternating projections (independent reference solver)",
		func(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
			if err := requireQuadratic("dykstra", o); err != nil {
				return nil, err
			}
			d, err := p.asDiagonalDense("dykstra")
			if err != nil {
				return nil, err
			}
			return baseline.SolveDykstra(ctx, d, o)
		}))
	MustRegister(NewSolver("projgrad",
		"projected gradient with Dykstra inner projections (general problems)",
		func(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
			if err := requireQuadratic("projgrad", o); err != nil {
				return nil, err
			}
			g, err := p.asGeneral("projgrad")
			if err != nil {
				return nil, err
			}
			return baseline.SolveProjGrad(ctx, g, o)
		}))
	MustRegister(NewSolver("entropy",
		"KL/entropy projection onto the totals constraints (generalized iterative scaling)",
		solveEntropy))
	MustRegister(NewSolver("ras",
		"RAS biproportional scaling of Deming and Stephan (1940); an alias of \"sinkhorn\"",
		solveSinkhorn("ras")))
	MustRegister(NewSolver("sinkhorn",
		"Sinkhorn-Knopp biproportional balancing (RAS; dense or CSR, with exact-termination detection)",
		solveSinkhorn("sinkhorn")))
	MustRegister(NewSolver("isp",
		"iterative scaling procedure: clamped additive Gauss-Seidel on the SEA dual",
		solveISP))
	MustRegister(NewSolver("unsigned",
		"unsigned Stone/Byron estimator (drops x >= 0; direct Cholesky solve)",
		func(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
			if err := requireQuadratic("unsigned", o); err != nil {
				return nil, err
			}
			d, err := p.asDiagonalDense("unsigned")
			if err != nil {
				return nil, err
			}
			return baseline.SolveUnsigned(ctx, d)
		}))
}

// requireQuadratic rejects an entropy objective handed to a solver whose
// algorithm minimizes the quadratic family only — an explicit error instead
// of a silently wrong answer. "sea" routes instead of rejecting, and the
// scaling baselines accept both families.
func requireQuadratic(solver string, o *Options) error {
	if o != nil && o.Objective != ObjectiveQuadratic {
		return fmt.Errorf("%w: solver %q minimizes the quadratic objective only; use Objective=quadratic, or the \"entropy\" solver (\"sea\" routes automatically)", ErrInvalidProblem, solver)
	}
	return nil
}

// solveEntropy adapts the generalized iterative scaling solver for the
// KL/entropy objective family (baseline.SolveEntropy): fixed, elastic,
// balanced and interval totals over dense or CSR storage, with per-sweep
// residual tracing and Mu0 dual warm starts. Domain errors (negative prior
// entries, a positive lower bound over a zero prior cell) wrap
// ErrInvalidProblem.
func solveEntropy(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
	d, err := p.asDiagonal("entropy")
	if err != nil {
		return nil, err
	}
	sol, err := baseline.SolveEntropy(ctx, d, o)
	if err != nil && errors.Is(err, baseline.ErrDomain) {
		return sol, fmt.Errorf("%w: %w", ErrInvalidProblem, err)
	}
	return sol, err
}

// solveSinkhorn adapts the Sinkhorn–Knopp balancing baseline, registered
// as both "sinkhorn" and "ras". It requires fixed totals and a nonnegative
// prior, runs natively on CSR storage, and streams per-sweep residuals
// through the trace observer. Balancing solves an entropy objective, so
// Objective reports the requested family's value at the balanced point (the
// quadratic one by default, for comparison with the other solvers) and the
// dual values are absent. A general problem has its dense prior balanced
// and reports the general quadratic objective.
func solveSinkhorn(name string) func(context.Context, *Problem, *Options) (*Solution, error) {
	return func(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		d, g := p.Diagonal, p.General
		if g != nil {
			gamma := make([]float64, len(g.X0))
			for k := range gamma {
				gamma[k] = 1
			}
			d = &DiagonalProblem{M: g.M, N: g.N, X0: g.X0, Gamma: gamma, S0: g.S0, D0: g.D0, Kind: g.Kind}
		}
		if d.Kind != FixedTotals {
			return nil, fmt.Errorf("%w: solver %q supports fixed totals only, got %v", ErrInvalidProblem, name, d.Kind)
		}
		sol, err := baseline.SolveSinkhorn(ctx, d, o)
		switch {
		case sol == nil:
		case g != nil:
			sol.Objective = g.Objective(sol.X, sol.S, sol.D)
		case o != nil && o.Objective == ObjectiveEntropy:
			sol.Objective = d.KLObjective(sol.X, sol.S, sol.D)
			sol.ObjectiveKind = ObjectiveEntropy
		}
		return sol, err
	}
}

// solveISP adapts the iterative scaling procedure: the additive analogue of
// biproportional scaling that solves the paper's actual quadratic program
// (fixed, elastic, balanced or interval totals; dense or CSR).
func solveISP(ctx context.Context, p *Problem, o *Options) (*Solution, error) {
	if err := requireQuadratic("isp", o); err != nil {
		return nil, err
	}
	d, err := p.asDiagonal("isp")
	if err != nil {
		return nil, err
	}
	return baseline.SolveISP(ctx, d, o)
}
