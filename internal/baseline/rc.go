// Package baseline implements the comparison algorithms of the paper's
// evaluation: the RC equilibration algorithm of Nagurney, Kim and Robinson
// (1990), the Bachem–Korte (1978) algorithm for quadratic optimization over
// transportation polytopes, the RAS / iterative-proportional-fitting method
// of Deming and Stephan (1940) as Sinkhorn–Knopp balancing, and Dykstra's
// alternating projections as an independent reference solver for
// cross-validating SEA.
package baseline

import (
	"context"
	"fmt"
	"math"
	"time"

	"sea/internal/core"
	"sea/internal/equilibrate"
	"sea/internal/mat"
	"sea/internal/parallel"
	"sea/internal/trace"
)

// SolveRC implements the RC equilibration algorithm of Nagurney, Kim and
// Robinson (1990) for general quadratic constrained matrix problems with
// fixed row and column totals — the first baseline of the paper's Table 7.
//
// Where SEA nests dual alternation *inside* a single projection-method
// diagonalization (so the dense-G linear-term update runs once per outer
// iteration), RC nests the projection method *inside* each dual stage: the
// row stage solves the general problem subject to only the row constraints
// (column multipliers fixed) by iterated diagonalization and parallel row
// equilibration, then the column stage does the same for the columns. Each
// projection iteration needs a dense-matrix linear-term update and a serial
// convergence verification, which is exactly why the paper finds RC both
// slower in total work and less parallelizable than SEA (compare the paper's
// Figures 4 and 6).
// Cancellation is observed between projection iterations: when ctx is
// cancelled the solve returns promptly with ctx.Err(). A nil ctx means
// context.Background. Trace receives one event per outer dual cycle.
func SolveRC(ctx context.Context, p *core.GeneralProblem, opts *core.Options) (*core.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.WithDefaults()
	if p.Kind != core.FixedTotals {
		return nil, fmt.Errorf("baseline: RC supports fixed totals only, got %v", p.Kind)
	}
	if err := p.Validate(o.SkipDominanceCheck); err != nil {
		return nil, err
	}
	m, n := p.M, p.N
	mn := m * n

	x, _, _ := p.FeasibleStart()
	lambda := make([]float64, m)
	mu := make([]float64, n)

	gammaT := make([]float64, mn) // γ̃ = diag(G)/ρ
	a := make([]float64, mn)      // the kernel slopes 1/(2γ̃), row-major
	rho := o.Relaxation
	for k := 0; k < mn; k++ {
		gammaT[k] = p.G.Diag(k) / rho
		a[k] = 0.5 / gammaT[k]
	}
	aT := make([]float64, mn) // and column-major
	mat.Transpose(aT, a, m, n)

	st := &rcState{
		ctx: ctx,
		p:   p, o: o, gammaT: gammaT, a: a, aT: aT,
		x:     x,
		z:     make([]float64, mn),
		xdev:  make([]float64, mn),
		gx:    make([]float64, mn),
		xPrev: make([]float64, mn),
	}
	st.runner = o.Runner
	if st.runner == nil {
		pool := parallel.NewPool(o.Procs)
		defer pool.Close()
		st.runner = pool
	}
	procs := st.runner.Workers()
	maxDim := m
	if n > maxDim {
		maxDim = n
	}
	if procs > maxDim {
		procs = maxDim
	}
	st.kernels = make([]*equilibrate.Kernel, procs)
	for c := range st.kernels {
		st.kernels[c] = equilibrate.NewKernel(0)
	}
	st.errs = make([]error, procs)
	st.tallies = make([]tally, procs)
	if trace.WantsCosts(o.Trace) {
		st.matvec = matvecCosts(mn)
	}
	st.xT = make([]float64, mn)
	if p.Upper != nil {
		st.upperT = make([]float64, mn)
		mat.Transpose(st.upperT, p.Upper, m, n)
	}
	// Per-subproblem warm-start states, indexed by row/column — never by
	// chunk — so the kernel's bit-exact warm sorts keep RC's results
	// independent of the worker count.
	st.rowStates = make([]equilibrate.State, m)
	st.colStates = make([]equilibrate.State, n)

	xOuter := make([]float64, mn)
	totalInner := 0
	obs := o.Trace
	for outer := 1; outer <= o.MaxIterations; outer++ {
		if err := ctx.Err(); err != nil {
			sol := st.finish(lambda, mu, outer-1, totalInner, math.NaN())
			sol.Converged = false
			return sol, err
		}
		copy(xOuter, st.x)
		st.ev = trace.Event{Solver: "rc", Iteration: outer, Checked: true}
		st.costs = st.costs[:0]
		var mark time.Time
		if obs != nil {
			mark = time.Now()
		}

		it, err := st.stage(true, lambda, mu)
		if err != nil {
			if ctx.Err() != nil {
				sol := st.finish(lambda, mu, outer, totalInner+it, math.NaN())
				sol.Converged = false
				return sol, ctx.Err()
			}
			return nil, fmt.Errorf("baseline: RC row stage (outer %d): %w", outer, err)
		}
		totalInner += it
		if obs != nil {
			now := time.Now()
			st.ev.RowPhase = now.Sub(mark)
			mark = now
		}
		it, err = st.stage(false, lambda, mu)
		if err != nil {
			if ctx.Err() != nil {
				sol := st.finish(lambda, mu, outer, totalInner+it, math.NaN())
				sol.Converged = false
				return sol, ctx.Err()
			}
			return nil, fmt.Errorf("baseline: RC column stage (outer %d): %w", outer, err)
		}
		totalInner += it

		delta := mat.MaxAbsDiff(st.x, xOuter)
		st.ev.SerialOps += int64(mn)
		if obs != nil {
			st.ev.ColPhase = time.Since(mark)
			st.ev.Residual = delta
			st.ev.Costs = st.costs
			obs.ObserveIteration(st.ev)
		}
		if delta <= o.Epsilon {
			return st.finish(lambda, mu, outer, totalInner, delta), nil
		}
	}
	sol := st.finish(lambda, mu, o.MaxIterations, totalInner, math.NaN())
	sol.Converged = false
	return sol, fmt.Errorf("%w: RC after %d outer iterations", core.ErrNotConverged, o.MaxIterations)
}

type rcState struct {
	ctx    context.Context
	p      *core.GeneralProblem
	o      *core.Options
	gammaT []float64
	// a and aT are the kernel slopes 1/(2γ̃), row- and column-major; the
	// kernel gathers each stage's coefficients z + a·(other multipliers)
	// from them and from z, which each stage lays out like its subproblems.
	a, aT []float64

	x, z, xdev, gx, xPrev []float64

	runner    *parallel.Pool
	kernels   []*equilibrate.Kernel // one per worker chunk
	rowStates []equilibrate.State   // warm-start state per row
	colStates []equilibrate.State   // warm-start state per column
	errs      []error               // first kernel error per worker chunk

	// The column stage solves into the column-major xT (n×m) against the
	// column-major upperT (nil without upper bounds), then scatters each
	// chunk's columns back into x.
	xT, upperT []float64

	// Per-solve instrumentation: each worker chunk tallies its
	// equilibrations in tallies[chunk], folded after every phase into ev,
	// the trace record of the outer cycle in flight. When the observer
	// wants costs, matvec is the shared per-task cost of a linear-term
	// update and costs collects the cycle's phases; otherwise both are nil.
	tallies []tally
	ev      trace.Event
	matvec  []int64
	costs   []trace.PhaseCosts
}

// tally is one worker chunk's equilibration count, how many of them were
// solved at their interior root, and its operation total in the phase being
// dispatched.
type tally struct{ equil, interior, ops int64 }

// stage runs one dual stage (rows if rowStage, else columns): the projection
// method on the general objective subject to only that side's constraints,
// with the other side's multipliers fixed as linear terms. It updates x and
// the stage's multipliers in place and returns the number of projection
// iterations used.
func (st *rcState) stage(rowStage bool, lambda, mu []float64) (int, error) {
	p, o := st.p, st.o
	m, n := p.M, p.N
	mn := m * n

	for proj := 1; proj <= o.InnerMaxIterations; proj++ {
		if err := st.ctx.Err(); err != nil {
			return proj - 1, err
		}
		copy(st.xPrev, st.x)
		// Dense linear-term update z = x − ρ·[G(x−x⁰)]/diag(G), in parallel
		// over the rows of G.
		for k := 0; k < mn; k++ {
			st.xdev[k] = st.x[k] - p.X0[k]
		}
		st.runner.ForChunks(mn, func(_, lo, hi int) {
			p.G.MulVecRange(st.gx, st.xdev, lo, hi)
		})
		st.ev.Ops += int64(mn) * int64(mn)
		// z is laid out like the stage's subproblems: row-major for the
		// rows, column-major for the columns.
		if rowStage {
			for k := 0; k < mn; k++ {
				st.z[k] = st.x[k] - st.gx[k]/st.gammaT[k]
			}
		} else {
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					k := i*n + j
					st.z[j*m+i] = st.x[k] - st.gx[k]/st.gammaT[k]
				}
			}
		}

		var tasks []int64 // this phase's per-task costs, when wanted
		if st.matvec != nil {
			pc := trace.PhaseCosts{}
			if rowStage {
				pc.Row = make([]int64, m)
				tasks = pc.Row
			} else {
				pc.Col = make([]int64, n)
				tasks = pc.Col
			}
			st.costs = append(st.costs, trace.PhaseCosts{Row: st.matvec}, pc)
		}

		if rowStage {
			st.runner.ForChunks(m, func(chunk, lo, hi int) {
				kern := st.kernels[chunk]
				for i := lo; i < hi; i++ {
					prob := equilibrate.Problem{C: st.z[i*n : (i+1)*n], A: st.a[i*n : (i+1)*n], Other: mu, R: p.S0[i]}
					if p.Upper != nil {
						prob.U = p.Upper[i*n : (i+1)*n]
					}
					res, err := kern.Solve(&prob, st.x[i*n:(i+1)*n], &st.rowStates[i])
					if err != nil {
						st.fail(chunk, "row", i, err)
						return
					}
					lambda[i] = res.Lambda
					st.record(chunk, tasks, i, res.Ops+int64(2*n), res.Interior)
				}
			})
		} else {
			st.runner.ForChunks(n, func(chunk, lo, hi int) {
				kern := st.kernels[chunk]
				for j := lo; j < hi; j++ {
					prob := equilibrate.Problem{C: st.z[j*m : (j+1)*m], A: st.aT[j*m : (j+1)*m], Other: lambda, R: p.D0[j]}
					if st.upperT != nil {
						prob.U = st.upperT[j*m : (j+1)*m]
					}
					res, err := kern.Solve(&prob, st.xT[j*m:(j+1)*m], &st.colStates[j])
					if err != nil {
						st.fail(chunk, "column", j, err)
						return
					}
					for i, v := range st.xT[j*m : (j+1)*m] {
						st.x[i*n+j] = v
					}
					mu[j] = res.Lambda
					st.record(chunk, tasks, j, res.Ops+int64(2*m), res.Interior)
				}
			})
		}
		for c, t := range st.tallies {
			st.ev.Equilibrations += t.equil
			st.ev.Interior += t.interior
			st.ev.Ops += t.ops
			st.tallies[c] = tally{}
		}
		if err := st.takeErr(); err != nil {
			return proj, err
		}

		// Serial projection-method convergence verification — the phase
		// that separates RC's parallel stages (paper, Section 5.2).
		st.ev.Inner++
		st.ev.SerialOps += int64(mn)
		if st.matvec != nil {
			st.costs = append(st.costs, trace.PhaseCosts{Serial: int64(mn)})
		}
		if mat.MaxAbsDiff(st.x, st.xPrev) <= o.InnerEpsilon {
			return proj, nil
		}
	}
	return o.InnerMaxIterations, fmt.Errorf("%w: RC stage projection", core.ErrNotConverged)
}

func (st *rcState) finish(lambda, mu []float64, outer, inner int, residual float64) *core.Solution {
	p := st.p
	sol := &core.Solution{
		X: mat.Clone(st.x), S: mat.Clone(p.S0), D: mat.Clone(p.D0),
		Lambda: mat.Clone(lambda), Mu: mat.Clone(mu),
		Iterations:      outer,
		InnerIterations: inner,
		Converged:       true,
		Residual:        residual,
	}
	sol.Objective = p.Objective(sol.X, sol.S, sol.D)
	sol.DualValue = math.NaN()
	return sol
}

// matvecCosts returns the per-row task costs of a dense mn×mn product.
func matvecCosts(mn int) []int64 {
	costs := make([]int64, mn)
	for k := range costs {
		costs[k] = int64(mn)
	}
	return costs
}

// fail records a worker chunk's first kernel error, attributed to
// subproblem k of the named side. Each chunk owns its slot, so failing
// chunks never race.
func (st *rcState) fail(chunk int, side string, k int, err error) {
	if st.errs[chunk] == nil {
		st.errs[chunk] = fmt.Errorf("%s %d: %w", side, k, err)
	}
}

// takeErr returns the error of the lowest failing chunk, so the reported
// error does not depend on the scheduler, and clears every slot.
func (st *rcState) takeErr() error {
	for _, err := range st.errs {
		if err != nil {
			clear(st.errs)
			return err
		}
	}
	return nil
}

// record tallies one equilibration task of the given worker chunk, solved
// at its interior root or not, and, when costs are wanted, stores its cost
// as task idx.
func (st *rcState) record(chunk int, tasks []int64, idx int, cost int64, interior bool) {
	st.tallies[chunk].equil++
	if interior {
		st.tallies[chunk].interior++
	}
	st.tallies[chunk].ops += cost
	if tasks != nil {
		tasks[idx] = cost
	}
}
