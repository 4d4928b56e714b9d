package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"sea/internal/core"
	"sea/internal/trace"
)

// csrFixed builds a banded CSR fixed-totals problem together with its
// densified twin (structural zeros pinned by [0,0] boxes are NOT needed for
// the scaling solvers: Sinkhorn preserves zeros natively, so the dense twin
// simply stores explicit zeros with tiny weights' cells absent from totals).
func csrFixed(rng *rand.Rand, m, n, band int) (*core.DiagonalProblem, *core.DiagonalProblem) {
	rowPtr := make([]int, m+1)
	var colIdx []int32
	var x0 []float64
	for i := 0; i < m; i++ {
		rowPtr[i] = len(colIdx)
		prev := int32(-1)
		for b := 0; b < band; b++ {
			j := int32((i + b*5) % n)
			if j <= prev {
				continue
			}
			prev = j
			colIdx = append(colIdx, j)
			x0 = append(x0, 0.2+rng.Float64()*10)
		}
		rowPtr[m] = len(colIdx)
	}
	rowPtr[m] = len(colIdx)
	nnz := len(colIdx)
	gamma := make([]float64, nnz)
	for k := range gamma {
		gamma[k] = 1 / x0[k]
	}
	pt := &core.Pattern{RowPtr: rowPtr, ColIdx: colIdx}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			s0[i] += 1.2 * x0[k]
			d0[colIdx[k]] += 1.2 * x0[k]
		}
	}
	sp := &core.DiagonalProblem{M: m, N: n, X0: x0, Gamma: gamma, S0: s0, D0: d0, Pattern: pt, Kind: core.FixedTotals}
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	dn, err := sp.Densify()
	if err != nil {
		panic(err)
	}
	return sp, dn
}

// rasReference is the classical RAS iteration on a dense matrix: scale every
// row of x in place to its target, then every column, sweeps times. It
// shares no code with scale.Sinkhorn's factor form.
func rasReference(m, n int, x0, s0, d0 []float64, sweeps int) []float64 {
	x := append([]float64(nil), x0...)
	for ; sweeps > 0; sweeps-- {
		for i := 0; i < m; i++ {
			row := x[i*n : (i+1)*n]
			var s float64
			for _, v := range row {
				s += v
			}
			for j := range row {
				row[j] *= s0[i] / s
			}
		}
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += x[i*n+j]
			}
			for i := 0; i < m; i++ {
				x[i*n+j] *= d0[j] / s
			}
		}
	}
	return x
}

// TestSinkhornMatchesRAS: both are the same biproportional iteration, so on
// a dense fixed problem the balanced matrix must agree closely with the
// classical in-place RAS update run to its limit.
func TestSinkhornMatchesRAS(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 3))
	p := randFixedDiag(rng, 9, 12, 1.5)
	o := optsWith(1e-10, 50000)
	ras := rasReference(p.M, p.N, p.X0, p.S0, p.D0, 2000)
	sk, err := SolveSinkhorn(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	for k := range sk.X {
		if math.Abs(sk.X[k]-ras[k]) > 1e-6*(1+math.Abs(ras[k])) {
			t.Fatalf("X[%d]: sinkhorn %g vs ras %g", k, sk.X[k], ras[k])
		}
	}
	if sk.Status != core.StatusConverged {
		t.Fatalf("status %v", sk.Status)
	}
}

// TestSinkhornCSRMatchesDense: the CSR solve and its densified twin must
// agree bit-for-bit on the support (dense zeros contribute exact zeros in
// the same accumulation order).
func TestSinkhornCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 9))
	sp, dn := csrFixed(rng, 18, 13, 4)
	o := optsWith(1e-9, 20000)
	a, err := SolveSinkhorn(context.Background(), sp, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveSinkhorn(context.Background(), dn, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations {
		t.Fatalf("iterations %d vs %d", a.Iterations, b.Iterations)
	}
	pt := sp.Pattern
	for i := 0; i < sp.M; i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			dv := b.X[i*sp.N+int(pt.ColIdx[k])]
			if math.Float64bits(a.X[k]) != math.Float64bits(dv) {
				t.Fatalf("X at (%d,%d): %v vs %v", i, pt.ColIdx[k], a.X[k], dv)
			}
		}
	}
}

// TestISPMatchesSEA: ISP solves the same quadratic program as SEA, so the
// primal solutions must agree to the tolerance across kinds and storages.
func TestISPMatchesSEA(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	sp, dn := csrFixed(rng, 15, 11, 4)
	cases := map[string]*core.DiagonalProblem{
		"dense/fixed": randFixedDiag(rng, 8, 10, 1.4),
		"csr/fixed":   sp,
		"dense/twin":  dn,
	}
	for name, p := range cases {
		o := optsWith(1e-10, 200000)
		o.Criterion = core.DualGradient
		ref, err := core.SolveDiagonal(context.Background(), p, seaOpts())
		if err != nil {
			t.Fatalf("%s: sea: %v", name, err)
		}
		got, err := SolveISP(context.Background(), p, o)
		if err != nil {
			t.Fatalf("%s: isp: %v", name, err)
		}
		for k := range got.X {
			if math.Abs(got.X[k]-ref.X[k]) > 1e-6*(1+math.Abs(ref.X[k])) {
				t.Fatalf("%s: X[%d]: isp %g vs sea %g", name, k, got.X[k], ref.X[k])
			}
		}
		if gap := math.Abs(got.Objective - ref.Objective); gap > 1e-6*(1+ref.Objective) {
			t.Fatalf("%s: objective %g vs %g", name, got.Objective, ref.Objective)
		}
	}
}

// TestScalingSolversTracePerSweep: both new solvers must stream one checked
// event per sweep through the observer — the property the NDJSON job
// streams rely on for scaling progress.
func TestScalingSolversTracePerSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 5))
	p := randFixedDiag(rng, 7, 9, 1.3)
	for _, run := range []struct {
		name  string
		solve func(*core.Options) (*core.Solution, error)
	}{
		{"sinkhorn", func(o *core.Options) (*core.Solution, error) {
			return SolveSinkhorn(context.Background(), p, o)
		}},
		{"isp", func(o *core.Options) (*core.Solution, error) {
			return SolveISP(context.Background(), p, o)
		}},
	} {
		var col trace.Collector
		o := optsWith(1e-8, 10000)
		o.Trace = &col
		sol, err := run.solve(o)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		evs := col.Events
		if len(evs) != sol.Iterations {
			t.Fatalf("%s: %d events for %d sweeps", run.name, len(evs), sol.Iterations)
		}
		for i, ev := range evs {
			if ev.Solver != run.name || ev.Iteration != i+1 || !ev.Checked {
				t.Fatalf("%s: event %d = %+v", run.name, i, ev)
			}
			if math.IsNaN(ev.Residual) || ev.Residual < 0 {
				t.Fatalf("%s: event %d residual %v", run.name, i, ev.Residual)
			}
		}
		// Residuals must reach the tolerance at the last sweep.
		if last := evs[len(evs)-1].Residual; last > o.Epsilon {
			t.Fatalf("%s: final traced residual %g > eps", run.name, last)
		}
	}
}

// TestSinkhornStructuralError mirrors the classical RAS failure mode.
func TestSinkhornStructuralError(t *testing.T) {
	x0 := []float64{1, 2, 0, 0, 3, 4} // row 1 empty
	gamma := []float64{1, 1, 1, 1, 1, 1}
	p := &core.DiagonalProblem{
		M: 3, N: 2, X0: x0, Gamma: gamma,
		S0: []float64{3, 5, 7}, D0: []float64{8, 7},
		Kind: core.FixedTotals,
	}
	if _, err := SolveSinkhorn(context.Background(), p, optsWith(1e-6, 100)); !errors.Is(err, ErrRASStructure) {
		t.Fatalf("err = %v, want ErrRASStructure", err)
	}
}

// TestISPIntervalMatchesSEA: with interval totals ISP picks each
// equation's binding side by complementarity, and lands on SEA's solution
// of the same quadratic program — dense and CSR, with and without bounds —
// with the interval sign conditions holding.
func TestISPIntervalMatchesSEA(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 3))
	for _, storage := range []string{"dense", "csr"} {
		for _, bounded := range []bool{false, true} {
			p := randInterval(rng, 9, 8)
			if bounded {
				p.Lower, p.Upper = make([]float64, len(p.X0)), make([]float64, len(p.X0))
				for k, v := range p.X0 {
					p.Lower[k], p.Upper[k] = 0.2*v, 3*v
				}
			}
			if storage == "csr" {
				if p.Upper == nil {
					p.Upper = make([]float64, len(p.X0))
					for k := range p.Upper {
						p.Upper[k] = math.Inf(1)
					}
				}
				for k := range p.Upper {
					if k%3 == 1 {
						p.Upper[k], p.Lower = 0, nil // pinned: dropped from the support
					}
				}
				sp, err := p.Sparsify()
				if err != nil {
					t.Fatal(err)
				}
				if !bounded {
					sp.Upper = nil
				} else {
					sp.Lower = make([]float64, len(sp.X0))
					for k, v := range sp.X0 {
						sp.Lower[k] = 0.2 * v
					}
				}
				p = sp
			}
			name := fmt.Sprintf("%s/bounded=%v", storage, bounded)
			ref, err := core.SolveDiagonal(context.Background(), p, seaOpts())
			if err != nil {
				t.Fatalf("%s: sea: %v", name, err)
			}
			got, err := SolveISP(context.Background(), p, optsWith(1e-10, 200000))
			if err != nil {
				t.Fatalf("%s: isp: %v", name, err)
			}
			for k := range got.X {
				if math.Abs(got.X[k]-ref.X[k]) > 1e-6*(1+math.Abs(ref.X[k])) {
					t.Fatalf("%s: X[%d]: isp %g vs sea %g", name, k, got.X[k], ref.X[k])
				}
			}
			if gap := math.Abs(got.Objective - ref.Objective); gap > 1e-6*(1+ref.Objective) {
				t.Fatalf("%s: objective %g vs %g", name, got.Objective, ref.Objective)
			}
			if rep := core.CheckKKT(p, got); !rep.Satisfied(1e-6) {
				t.Fatalf("%s: isp KKT violated: %+v", name, rep)
			}
			var binding, free int
			for _, v := range append(append([]float64(nil), got.Lambda...), got.Mu...) {
				if v == 0 {
					free++
				} else {
					binding++
				}
			}
			if binding == 0 || free == 0 {
				t.Fatalf("%s: %d binding and %d free multipliers; want both sides of complementarity exercised", name, binding, free)
			}
		}
	}
}

// TestISPRejectsNonFinite: SolveISP validates the problem first, so a NaN
// or infinite total in S0 or D0, on fixed and elastic totals alike, is a
// *core.ValidationError instead of a "converged" solution over NaN cells.
func TestISPRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewPCG(83, 2))
	for _, kind := range []string{"fixed", "elastic"} {
		for _, side := range []string{"S0", "D0"} {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				p := randFixedDiag(rng, 5, 6, 1.3)
				if kind == "elastic" {
					p = randElastic(rng, 5, 6)
				}
				totals := p.S0
				if side == "D0" {
					totals = p.D0
				}
				totals[2] = bad
				sol, err := SolveISP(context.Background(), p, optsWith(1e-8, 1000))
				var ve *core.ValidationError
				if !errors.As(err, &ve) || sol != nil {
					t.Errorf("%s/%s = %v: solution %v, error %v; want a *core.ValidationError", kind, side, bad, sol != nil, err)
				}
			}
		}
	}
}
