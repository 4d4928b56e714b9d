package equilibrate

import (
	"math"
	"math/rand/v2"
	"testing"
)

// warmCase is one randomized subproblem family for the warm-start property
// test.
type warmCase struct {
	name     string
	n        int
	elastic  bool
	bounded  bool
	lowered  bool
	interval bool
}

// buildProblem constructs a random instance of the case's family. C is
// rebuilt (perturbed) by the caller between re-solves.
func buildProblem(rng *rand.Rand, c warmCase) *Problem {
	p := &Problem{
		C: make([]float64, c.n),
		A: make([]float64, c.n),
	}
	for j := 0; j < c.n; j++ {
		p.C[j] = rng.NormFloat64() * 10
		p.A[j] = 0.1 + rng.Float64()
	}
	if c.bounded {
		p.U = make([]float64, c.n)
		for j := 0; j < c.n; j++ {
			p.U[j] = 1 + rng.Float64()*20
			if rng.Float64() < 0.1 {
				p.U[j] = math.Inf(1)
			}
		}
	}
	if c.lowered {
		p.L = make([]float64, c.n)
		for j := 0; j < c.n; j++ {
			p.L[j] = rng.Float64() * 0.5
			if p.U != nil && p.L[j] > p.U[j] {
				p.L[j] = 0
			}
		}
	}
	if c.elastic {
		p.E = 0.1 + rng.Float64()
	}
	p.R = feasibleTarget(rng, p)
	return p
}

// feasibleTarget picks a target inside the reachable range of Σx.
func feasibleTarget(rng *rand.Rand, p *Problem) float64 {
	if p.E > 0 {
		return rng.NormFloat64() * 20
	}
	var lb, ub float64
	for j := range p.C {
		lb += p.lower(j)
		if p.U != nil && !math.IsInf(p.U[j], 1) {
			ub += p.U[j]
		} else {
			ub += p.lower(j) + 30
		}
	}
	return lb + rng.Float64()*(ub-lb)
}

// TestWarmStartBitIdentical is the warm-start contract: over random
// sequences of perturbed coefficients and targets — including perturbations
// large enough to flip bound activations and reorder breakpoints — a
// re-solve through a persistent State is bit-identical to a cold solve of
// the same instance, for every subproblem family (fixed, elastic, bounded,
// interval totals) and for sizes on every route of the batch's cold sort.
// The cold reference is a fresh batch sorted by plain insertion.
func TestWarmStartBitIdentical(t *testing.T) {
	cases := []warmCase{
		{name: "fixed-classical-small", n: 7},
		{name: "fixed-classical-mid", n: 64},
		{name: "fixed-classical-large", n: 300},
		{name: "elastic-classical", n: 120, elastic: true},
		{name: "fixed-bounded", n: 90, bounded: true},
		{name: "fixed-box", n: 150, bounded: true, lowered: true},
		{name: "elastic-box", n: 80, elastic: true, bounded: true, lowered: true},
		{name: "interval", n: 110, bounded: true, interval: true},
		{name: "single", n: 1},
	}
	const steps = 40
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(31, uint64(ci)))
			p := buildProblem(rng, c)
			st := &State{}
			bWarm := NewBatch(0)
			xWarm := make([]float64, c.n)
			xCold := make([]float64, c.n)
			var lo, hi float64
			for step := 0; step < steps; step++ {
				// Perturb the linear terms: usually a small dual drift, and
				// occasionally a violent shake that flips activations and
				// scrambles the breakpoint order (forcing the sort fallback).
				scale := 0.05
				if rng.Float64() < 0.2 {
					scale = 20
				}
				for j := 0; j < c.n; j++ {
					p.C[j] += rng.NormFloat64() * scale
				}
				if rng.Float64() < 0.3 {
					p.R = feasibleTarget(rng, p)
				}
				if c.interval {
					mid := feasibleTarget(rng, p)
					span := rng.Float64() * 10
					lo, hi = mid-span, mid+span
				}

				var warmRes, coldRes Result
				var warmErr, coldErr error
				if c.interval {
					warmRes, warmErr = solveOne(bWarm, interval(p, lo, hi, xWarm, st))
					coldRes, coldErr = solveInsertion(interval(p, lo, hi, xCold, nil))
				} else {
					warmRes, warmErr = solveOne(bWarm, fixed(p, xWarm, st))
					coldRes, coldErr = solveInsertion(fixed(p, xCold, nil))
				}
				if (warmErr == nil) != (coldErr == nil) {
					t.Fatalf("step %d: warm err %v, cold err %v", step, warmErr, coldErr)
				}
				if warmErr != nil {
					continue // both infeasible the same way; state untouched
				}
				if warmRes.Lambda != coldRes.Lambda {
					t.Fatalf("step %d: warm λ=%v cold λ=%v (must be bit-identical)", step, warmRes.Lambda, coldRes.Lambda)
				}
				if warmRes.Total != coldRes.Total {
					t.Fatalf("step %d: warm total=%v cold total=%v", step, warmRes.Total, coldRes.Total)
				}
				if warmRes.Ops != coldRes.Ops {
					t.Fatalf("step %d: warm ops=%d cold ops=%d (cost model must not depend on the path)", step, warmRes.Ops, coldRes.Ops)
				}
				for j := 0; j < c.n; j++ {
					if xWarm[j] != xCold[j] {
						t.Fatalf("step %d: x[%d] warm=%v cold=%v", step, j, xWarm[j], xCold[j])
					}
				}
			}
			if c.n > 1 && st.FastSorts == 0 {
				t.Errorf("warm path never took the fast sort (%d full sorts) — the cache is not being exercised", st.FullSorts)
			}
		})
	}
}

// TestStateReset: after Reset the next solve runs cold (a full sort) and
// still matches.
func TestStateReset(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	p := buildProblem(rng, warmCase{n: 50})
	st := &State{}
	b := NewBatch(0)
	x := make([]float64, 50)
	if _, err := solveOne(b, fixed(p, x, st)); err != nil {
		t.Fatal(err)
	}
	full := st.FullSorts
	st.Reset()
	if _, err := solveOne(b, fixed(p, x, st)); err != nil {
		t.Fatal(err)
	}
	if st.FullSorts != full+1 {
		t.Errorf("post-Reset solve should cold-sort: FullSorts %d, want %d", st.FullSorts, full+1)
	}
}

// TestStateShapeChange: a State reused across a size change must detect the
// mismatch, cold-sort, and stay correct.
func TestStateShapeChange(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 10))
	st := &State{}
	b := NewBatch(0)
	for _, n := range []int{40, 64, 12, 64} {
		p := buildProblem(rng, warmCase{n: n})
		xWarm := make([]float64, n)
		xCold := make([]float64, n)
		warmRes, err := solveOne(b, fixed(p, xWarm, st))
		if err != nil {
			t.Fatal(err)
		}
		coldRes, err := solveInsertion(fixed(p, xCold, nil))
		if err != nil {
			t.Fatal(err)
		}
		if warmRes.Lambda != coldRes.Lambda {
			t.Fatalf("n=%d: warm λ=%v cold λ=%v", n, warmRes.Lambda, coldRes.Lambda)
		}
		for j := range xWarm {
			if xWarm[j] != xCold[j] {
				t.Fatalf("n=%d: x[%d] differs", n, j)
			}
		}
	}
}
