package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"sea/internal/parsim"
	"sea/internal/trace"
)

// streamCase is a dense problem without cell bounds, on which the column
// phase tries its columns' interior roots in storage order.
type streamCase struct {
	p *DiagonalProblem
	// mixed: some columns miss their interior root and take the tile route.
	mixed bool
}

// mixedFixed builds a dense fixed-totals problem whose small cells clamp at
// 0: a uniform prior in [0, 100) with weights in [0.5, 1.5) and every
// column's total factor[j] times its prior's, so a factor below 1 shrinks
// the column and the smallest of its cells leave the interior.
func mixedFixed(rng *rand.Rand, m, n int, factor func(j int) float64) *DiagonalProblem {
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = rng.Float64() * 100
		gamma[k] = 0.5 + rng.Float64()
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := factor(j) * x0[i*n+j]
			s0[i] += v
			d0[j] += v
		}
	}
	p, err := NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		panic(err)
	}
	return p
}

func streamCases() map[string]streamCase {
	rng := rand.New(rand.NewPCG(71, 73))
	return map[string]streamCase{
		"fixed/interior": {p: randFixed(rng, 37, 53, 100, 1.3)},
		// Every fourth column and every seventh shrink to 0.35 of their
		// prior, the rest grow 1.4×: clamped columns scattered.
		"fixed/scattered": {p: mixedFixed(rng, 41, 47, func(j int) float64 {
			if j%4 == 1 || j%7 == 3 {
				return 0.35
			}
			return 1.4
		}), mixed: true},
		// Columns 3–8, 20–21 and the last shrink to 0.3 of their prior, the
		// rest grow 1.4×: clamped columns in runs, between interior ones.
		"fixed/runs": {p: mixedFixed(rng, 29, 43, func(j int) float64 {
			if j >= 3 && j <= 8 || j == 20 || j == 21 || j == 42 {
				return 0.3
			}
			return 1.4
		}), mixed: true},
		// An integer prior with zero cells, whose totals are its own sums:
		// every root is exactly 0, and the zero cells stay exactly at 0,
		// inside the interior but not above it.
		"fixed/zeros": {p: zeroCells(rng, 23, 19)},
		"elastic":     {p: randElastic(rng, 31, 27), mixed: true},
		"balanced":    {p: randBalanced(rng, 33), mixed: true},
		// A long elastic solve, on which the ω rule engages.
		"elastic/omega": {p: omegaElastic(rng, 40, 60)},
	}
}

// zeroCells builds a fixed-totals problem with an integer prior in [0, 9],
// a third of it zero, unit weights, and the prior's own sums as totals.
func zeroCells(rng *rand.Rand, m, n int) *DiagonalProblem {
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for k := range x0 {
		if rng.IntN(3) != 0 {
			x0[k] = float64(rng.IntN(9) + 1)
		}
		gamma[k] = 1
		s0[k/n] += x0[k]
		d0[k%n] += x0[k]
	}
	p, err := NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		panic(err)
	}
	return p
}

// omegaElastic builds an elastic problem whose totals sit near 1.2× the
// prior's sums and whose total weights are small, so the solve runs about
// 50 iterations and the ω rule engages, with every subproblem interior.
func omegaElastic(rng *rand.Rand, m, n int) *DiagonalProblem {
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = 1 + rng.Float64()*10
		gamma[k] = 0.5 + rng.Float64()
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s0[i] += 1.2 * x0[i*n+j] * (0.9 + 0.2*rng.Float64())
			d0[j] += 1.2 * x0[i*n+j] * (0.9 + 0.2*rng.Float64())
		}
	}
	alpha := make([]float64, m)
	for i := range alpha {
		alpha[i] = 0.2 * (1 + rng.Float64())
	}
	beta := make([]float64, n)
	for j := range beta {
		beta[j] = 0.2 * (1 + rng.Float64())
	}
	p, err := NewElastic(m, n, x0, gamma, s0, alpha, d0, beta)
	if err != nil {
		panic(err)
	}
	return p
}

// phaseTally is one iteration's kernel counts.
type phaseTally struct{ equil, interior, ops int64 }

// streamSolve solves p with tileColumns set to tile and returns the
// solution, each iteration's counts, and the per-task cost trace.
func streamSolve(t *testing.T, p *DiagonalProblem, o *Options, tile bool) (*Solution, []phaseTally, []trace.PhaseCosts) {
	t.Helper()
	tileColumns = tile
	defer func() { tileColumns = false }()
	var tallies []phaseTally
	rec := &parsim.Recorder{}
	o.Trace = trace.Multi(trace.Func(func(e trace.Event) {
		tallies = append(tallies, phaseTally{e.Equilibrations, e.Interior, e.Ops})
	}), rec)
	sol, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	return sol, tallies, rec.Phases
}

// takesStream reports whether the first or the last column phase of a solve
// of p under o runs the storage-order pass.
func takesStream(t *testing.T, p *DiagonalProblem, o *Options) bool {
	t.Helper()
	st := newDiagState(context.Background(), p, o.WithDefaults())
	defer st.close()
	st.iterations = 1
	st.beginIteration("sea")
	if err := st.rowPhase(); err != nil {
		t.Fatal(err)
	}
	if err := st.colPhase(); err != nil {
		t.Fatal(err)
	}
	first := st.stream
	st = newDiagState(context.Background(), p, o.WithDefaults())
	defer st.close()
	if err := st.run(); err != nil {
		t.Fatal(err)
	}
	return first || st.stream
}

// TestStreamColumnsMatchTileRoute: the dense column phase's storage-order
// interior pass is a pure performance route. On fixed, elastic and balanced
// problems — every column interior, or clamped columns scattered and in
// runs — with the ω rule engaged, with BoundMultipliers, and with
// CheckEvery 2, every batch budget and worker count gives the solution
// (X, λ, μ, S, D, Objective, DualValue, residual, iterations), the
// per-iteration kernel counts and the per-task costs of the tile-only
// route, bit for bit.
func TestStreamColumnsMatchTileRoute(t *testing.T) {
	def := restoreBatchEvents(t)
	variants := map[string]func(*Options){
		"default":          func(*Options) {},
		"boundMultipliers": func(o *Options) { o.BoundMultipliers = true },
		"checkEvery2":      func(o *Options) { o.CheckEvery = 2 },
	}
	omegaSeen := false
	streamed := map[string]bool{}
	for name, c := range streamCases() {
		for vname, variant := range variants {
			opts := func(procs int) *Options {
				o := DefaultOptions()
				o.Criterion = MaxAbsDelta
				o.Epsilon = 1e-9
				o.MaxIterations = 5000
				o.Procs = procs
				variant(o)
				return o
			}
			batchEvents = def
			if takesStream(t, c.p, opts(1)) {
				streamed[vname] = true
			} else if vname == "default" {
				t.Fatalf("%s: neither the first nor the last column phase takes the storage-order pass", name)
			}
			ref, refT, refCT := streamSolve(t, c.p, opts(1), true)
			if !ref.Converged {
				t.Fatalf("%s/%s: tile reference did not converge", name, vname)
			}
			var equil, interior int64
			for _, e := range refT {
				equil += e.equil
				interior += e.interior
			}
			if c.mixed == (interior == equil) {
				t.Fatalf("%s/%s: %d of %d subproblems interior, want mixed=%v", name, vname, interior, equil, c.mixed)
			}
			for _, procs := range []int{1, 2, 7, 16} {
				for _, events := range []int{1, 997, def} {
					batchEvents = events
					tag := fmt.Sprintf("%s/%s/procs=%d/events=%d", name, vname, procs, events)
					var engaged bool
					omegaHook = func(_ int, omega float64) float64 {
						engaged = engaged || omega > 1
						return omega
					}
					sol, tallies, ct := streamSolve(t, c.p, opts(procs), false)
					omegaHook = nil
					omegaSeen = omegaSeen || engaged
					sameSolution(t, tag, sol, ref)
					sameBits(t, tag+": X", sol.X, ref.X)
					sameBits(t, tag+": Lambda", sol.Lambda, ref.Lambda)
					sameBits(t, tag+": Mu", sol.Mu, ref.Mu)
					sameBits(t, tag+": Objective/DualValue", []float64{sol.Objective, sol.DualValue}, []float64{ref.Objective, ref.DualValue})
					if len(tallies) != len(refT) {
						t.Fatalf("%s: %d iterations traced, want %d", tag, len(tallies), len(refT))
					}
					for it, e := range tallies {
						if e != refT[it] {
							t.Fatalf("%s: iteration %d counts %+v, want %+v", tag, it+1, e, refT[it])
						}
					}
					sameCostTrace(t, tag, ct, refCT)
				}
			}
		}
	}
	if !omegaSeen {
		t.Fatal("the ω rule engaged on no case")
	}
	for vname := range variants {
		if !streamed[vname] {
			t.Errorf("%s: no case takes the storage-order pass", vname)
		}
	}
}

// TestStreamColumnErrorNamesFirstFailingColumn is the column twin of
// TestPhaseErrorNamesFirstFailingSubproblem: a column the storage-order
// pass cannot solve goes to the kernel, which rejects it, and the phase
// names the first failing column in order. Columns 0, 1 and 3 are
// interior, and the fixed totals of columns 2 and 4 are negative (the
// kernel's infeasibility pre-check); the phase must name column 2.
func TestStreamColumnErrorNamesFirstFailingColumn(t *testing.T) {
	const m, n = 6, 5
	p := &DiagonalProblem{M: m, N: n, Kind: FixedTotals,
		X0: make([]float64, m*n), Gamma: make([]float64, m*n),
		S0: make([]float64, m), D0: make([]float64, n)}
	for k := range p.X0 {
		p.X0[k], p.Gamma[k] = 1, 0.5
	}
	for i := range p.S0 {
		p.S0[i] = 6
	}
	for j := range p.D0 {
		p.D0[j] = 7
	}
	p.D0[2], p.D0[4] = -1, -2
	o := DefaultOptions()
	o.Procs = 1
	st := newDiagState(context.Background(), p, o.WithDefaults())
	defer st.close()
	st.iterations = 1
	st.beginIteration("sea")
	if err := st.rowPhase(); err != nil {
		t.Fatal(err)
	}
	err := st.colPhase()
	if !st.stream {
		t.Fatal("the column phase did not take the storage-order pass")
	}
	if !errors.Is(err, ErrInfeasible) || !strings.HasPrefix(err.Error(), "column 2:") {
		t.Fatalf("err = %v, want column 2's infeasible total", err)
	}
	for j := 0; j < 2; j++ {
		if st.mu[j] == 0 || math.Abs(st.colSum[j]-7) > 1e-12 {
			t.Errorf("column %d: μ = %v, total %v; want its interior solve", j, st.mu[j], st.colSum[j])
		}
	}
}
