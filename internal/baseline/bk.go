package baseline

import (
	"context"
	"fmt"
	"math"
	"time"

	"sea/internal/core"
	"sea/internal/mat"
	"sea/internal/trace"
)

// SolveBK implements the Bachem–Korte (1978) style primal method for
// quadratic optimization over transportation polytopes — the second baseline
// of the paper's Table 7.
//
// The method works directly on the transportation polytope: starting from a
// feasible point, it cyclically sweeps the elementary cycles (i,j,i′,j′) —
// the +/− adjustments x_ij, x_i′j′ up, x_ij′, x_i′j down that preserve all
// row and column totals — performing an exact line search of the quadratic
// objective along each cycle, clipped to the nonnegativity (and optional
// upper) bounds. Every iterate is feasible; the sweep repeats until no cycle
// moves more than ε.
//
// For a dense G each accepted move requires updating the dense gradient
// (four columns of G), so a sweep costs O(m²n²·mn) — the reason the paper
// found B-K prohibitively expensive beyond G = 900×900 while SEA and RC,
// which never touch G more than once per projection step, kept scaling.
//
// The 1978 report's exact pivoting rules are not available (the companion
// implementation reference is Nagurney–Kim–Robinson (1990)); this
// elementary-cycle coordinate-descent realization preserves the method's
// class (primal, feasible, cycle-space, strictly serial) and its asymptotic
// cost, which is what Table 7 measures. See DESIGN.md, substitution 3.
// Cancellation is observed between the row blocks of a sweep (a full sweep
// is O(m²n²) line searches, far too long a unit): when ctx is cancelled the
// solve returns the current — always feasible — iterate with ctx.Err().
// A nil ctx means context.Background. Trace receives one event per sweep.
func SolveBK(ctx context.Context, p *core.GeneralProblem, opts *core.Options) (*core.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := fillOpts(opts)
	if p.Kind != core.FixedTotals {
		return nil, fmt.Errorf("baseline: B-K supports fixed totals only, got %v", p.Kind)
	}
	if err := p.Validate(true); err != nil {
		return nil, err
	}
	m, n := p.M, p.N
	mn := m * n

	x, _, _ := p.FeasibleStart()

	// Dense gradient g = 2G(x−x⁰), maintained incrementally.
	dev := make([]float64, mn)
	for k := range dev {
		dev[k] = x[k] - p.X0[k]
	}
	g := make([]float64, mn)
	p.G.MulVec(g, dev)
	mat.Scale(2, g)
	// The gradient setup's operations are charged to the first sweep.
	ops := int64(mn) * int64(mn)

	_, diagG := p.G.(*mat.Diagonal)
	grow := make([]float64, mn) // scratch for dense gradient updates

	obs := o.Trace
	sol := &core.Solution{}
	for sweep := 1; sweep <= o.MaxIterations; sweep++ {
		sol.Iterations = sweep
		var mark time.Time
		if obs != nil {
			mark = time.Now()
		}
		var maxMove float64
		for i := 0; i < m-1; i++ {
			if err := ctx.Err(); err != nil {
				finishBK(sol, p, x)
				return sol, err
			}
			for i2 := i + 1; i2 < m; i2++ {
				for j := 0; j < n-1; j++ {
					for j2 := j + 1; j2 < n; j2++ {
						theta := bkMove(p, x, g, grow, diagG, i, i2, j, j2, &ops)
						if a := math.Abs(theta); a > maxMove {
							maxMove = a
						}
					}
				}
			}
		}
		sol.Residual = maxMove
		if obs != nil {
			obs.ObserveIteration(trace.Event{
				Solver: "bk", Iteration: sweep, Checked: true,
				Residual: maxMove, RowPhase: time.Since(mark), Ops: ops,
			})
		}
		ops = 0
		if maxMove <= o.Epsilon {
			sol.Converged = true
			break
		}
	}

	finishBK(sol, p, x)
	if !sol.Converged {
		return sol, fmt.Errorf("%w: B-K after %d sweeps (max move %g)", core.ErrNotConverged, o.MaxIterations, sol.Residual)
	}
	return sol, nil
}

// finishBK fills sol with the current (feasible) iterate and its objective.
func finishBK(sol *core.Solution, p *core.GeneralProblem, x []float64) {
	sol.X = x
	sol.S = mat.Clone(p.S0)
	sol.D = mat.Clone(p.D0)
	sol.Objective = p.Objective(x, sol.S, sol.D)
	sol.DualValue = math.NaN()
}

// bkMove performs the exact clipped line search along the elementary cycle
// (+1 at (i,j) and (i2,j2); −1 at (i,j2) and (i2,j)) and applies the move.
// It returns the step taken (0 if the cycle is already optimal or blocked)
// and adds the gradient update's operations to *ops.
func bkMove(p *core.GeneralProblem, x, g, grow []float64, diagG bool, i, i2, j, j2 int, ops *int64) float64 {
	n := p.N
	kpp := i*n + j   // +θ
	kpm := i*n + j2  // −θ
	kmp := i2*n + j  // −θ
	kmm := i2*n + j2 // +θ

	// Directional derivative and curvature along d.
	gd := g[kpp] - g[kpm] - g[kmp] + g[kmm]
	// dᵀ(2G)d expanded over the four support entries of d.
	ks := [4]int{kpp, kpm, kmp, kmm}
	sg := [4]float64{1, -1, -1, 1}
	var curv float64
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			curv += sg[a] * sg[b] * p.G.At(ks[a], ks[b])
		}
	}
	curv *= 2
	if curv <= 0 {
		return 0 // cannot happen for positive definite G; guard anyway
	}
	theta := -gd / curv

	// Clip to the box: increasing entries bounded above by Upper, the
	// decreasing ones below by 0 (and vice versa for negative θ).
	lo := math.Max(-x[kpp], -x[kmm])
	hi := math.Min(x[kpm], x[kmp])
	if p.Upper != nil {
		hi = math.Min(hi, math.Min(p.Upper[kpp]-x[kpp], p.Upper[kmm]-x[kmm]))
		lo = math.Max(lo, math.Max(x[kpm]-p.Upper[kpm], x[kmp]-p.Upper[kmp]))
	}
	if theta < lo {
		theta = lo
	} else if theta > hi {
		theta = hi
	}
	if theta == 0 || math.Abs(theta) < 1e-300 {
		return 0
	}

	x[kpp] += theta
	x[kmm] += theta
	x[kpm] -= theta
	x[kmp] -= theta

	// Gradient update g += 2G(θ·d).
	if diagG {
		g[kpp] += 2 * theta * p.G.Diag(kpp)
		g[kmm] += 2 * theta * p.G.Diag(kmm)
		g[kpm] -= 2 * theta * p.G.Diag(kpm)
		g[kmp] -= 2 * theta * p.G.Diag(kmp)
		*ops += 8
	} else {
		for a := 0; a < 4; a++ {
			p.G.Row(ks[a], grow)
			mat.AXPY(2*theta*sg[a], grow, g)
		}
		*ops += int64(8 * len(g))
	}
	return theta
}
