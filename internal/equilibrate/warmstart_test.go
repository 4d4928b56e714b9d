package equilibrate

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sea/internal/sortx"
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

// withClamp moves term 0's breakpoint to 10¹²/a₀ or beyond, far right of
// any root the targets of feasibleTarget reach (n ≥ 3, upper bounds below
// 10⁹), so term 0 clamps at its lower bound and no solve of p ends at its
// all-interior root: every solve sorts.
func withClamp(p *Problem) *Problem {
	p.C[0] = -1e12
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
// interval totals) and for sizes on every route of the kernel's cold sort.
// The cold reference is a fresh kernel sorted by plain insertion.
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
			kWarm := NewKernel(0)
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
					warmRes, warmErr = kWarm.SolveInterval(p, lo, hi, xWarm, st)
					coldRes, coldErr = solveInsertion(interval(p, lo, hi, xCold, nil))
				} else {
					warmRes, warmErr = kWarm.Solve(p, xWarm, st)
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
	k := NewKernel(0)
	x := make([]float64, 50)
	if _, err := k.Solve(p, x, st); err != nil {
		t.Fatal(err)
	}
	full := st.FullSorts
	st.Reset()
	if _, err := k.Solve(p, x, st); err != nil {
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
	k := NewKernel(0)
	for _, n := range []int{40, 64, 12, 64} {
		p := buildProblem(rng, warmCase{n: n})
		xWarm := make([]float64, n)
		xCold := make([]float64, n)
		warmRes, err := k.Solve(p, xWarm, st)
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

// TestWarmInOrderReplaySkipsRepair: an unbounded replay whose keys come out
// of the build already in order skips the repair pass, counts as a fast
// sort, and leaves State.perm as it was — and still matches plain insertion
// bit for bit. Term 0 clamps, so both solves sort.
func TestWarmInOrderReplaySkipsRepair(t *testing.T) {
	for _, n := range []int{12, 60, 300} { // sizes of the insertion and radix routes
		rng := rand.New(rand.NewPCG(13, uint64(n)))
		p := withClamp(buildProblem(rng, warmCase{n: n}))
		st := &State{}
		k := NewKernel(0)
		x := make([]float64, n)
		if _, err := k.Solve(p, x, st); err != nil {
			t.Fatal(err)
		}
		perm := slices.Clone(st.perm)
		base := &st.perm[0]
		fast, full := st.FastSorts, st.FullSorts
		// The same breakpoints with a new target replay in order.
		p.R = feasibleTarget(rng, p)
		got, err := k.Solve(p, x, st)
		if err != nil {
			t.Fatal(err)
		}
		if st.FastSorts != fast+1 || st.FullSorts != full {
			t.Errorf("n=%d: FastSorts %d→%d FullSorts %d→%d, want one fast sort", n, fast, st.FastSorts, full, st.FullSorts)
		}
		if &st.perm[0] != base || !slices.Equal(st.perm, perm) {
			t.Errorf("n=%d: an in-order replay rewrote State.perm", n)
		}
		xRef := make([]float64, n)
		want, err := solveInsertion(fixed(p, xRef, nil))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("n=%d", n), got, want, x, xRef)
	}
}

// TestWarmReplayOverBudgetRebuildsKeys: the warm unbounded build writes no
// build-order keys, so a replay that runs over the repair budget sorts
// cold from keys rebuilt from its events. The kernel's stale keys are
// poisoned before the replay; the result must still match plain insertion
// bit for bit, on every cold route. Both solves' roots clamp some terms, so
// both sort.
func TestWarmReplayOverBudgetRebuildsKeys(t *testing.T) {
	for _, n := range []int{12, 60, 300} { // insertion, span radix and top-bits routes
		rng := rand.New(rand.NewPCG(17, uint64(n)))
		p := withClamp(buildProblem(rng, warmCase{n: n}))
		st := &State{}
		k := NewKernel(0)
		x := make([]float64, n)
		if _, err := k.Solve(p, x, st); err != nil {
			t.Fatal(err)
		}
		// Reverse the cached order: n(n−1)/2 inversions against the 4n
		// budget. Term perm[k] gets breakpoint −k, and the target puts the
		// root at −n/2, where the terms past it clamp.
		for k, j := range st.perm {
			p.C[j] = float64(k) * p.A[j]
		}
		p.R = p.Phi(-float64(n) / 2)
		full := st.FullSorts
		for i := range k.keys {
			k.keys[i] = sortx.Key{Bits: uint64(i) * 7919, Idx: int32(i % 3)}
		}
		got, err := k.Solve(p, x, st)
		if err != nil {
			t.Fatal(err)
		}
		if st.FullSorts != full+1 || st.cool != replayCooldown {
			t.Errorf("n=%d: FullSorts %d→%d cool %d, want a failed replay", n, full, st.FullSorts, st.cool)
		}
		xRef := make([]float64, n)
		want, err := solveInsertion(fixed(p, xRef, nil))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("n=%d", n), got, want, x, xRef)
	}
}

// TestRecoverUnboundedLoopsAgree: the masked primal recovery loop writes the
// bits and total of a plain loop that clamps with a branch, on blocks with
// −0, ±Inf, NaN and subnormal coefficients, at roots on either side of
// zero.
func TestRecoverUnboundedLoopsAgree(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	cs := []float64{negZero, 0, 1, -1, inf, -inf, math.NaN(), 5e-324, -5e-324, 3, -2.5}
	as := []float64{1, 0.5, inf, 5e-324}
	ev := make([]event, 0, len(cs)*len(as))
	for _, c := range cs {
		for _, a := range as {
			ev = append(ev, event{da: a, dc: c})
		}
	}
	for _, lambda := range []float64{negZero, 0, 1, -1, 2.5, -2.5, 1e-300, inf, -inf} {
		xMask, xPlain := make([]float64, len(ev)), make([]float64, len(ev))
		tMask := recoverUnbounded(xMask, ev, lambda)
		var tPlain float64
		for j, e := range ev {
			v := e.dc + e.da*lambda
			if v < 0 {
				v = 0
			}
			xPlain[j] = v
			tPlain += v
		}
		if math.Float64bits(tMask) != math.Float64bits(tPlain) {
			t.Errorf("λ=%g: total %v (masked) vs %v (plain)", lambda, tMask, tPlain)
		}
		for j := range ev {
			if math.Float64bits(xMask[j]) != math.Float64bits(xPlain[j]) {
				t.Errorf("λ=%g c=%g a=%g: x = %v (%#x, masked) vs %v (%#x, plain)", lambda, ev[j].dc, ev[j].da,
					xMask[j], math.Float64bits(xMask[j]), xPlain[j], math.Float64bits(xPlain[j]))
			}
		}
	}
}
