package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

// testPattern builds an m×n support with every row and column covered: a
// cyclic band of the given width plus extra random cells, emitted in
// canonical CSR order. m ≥ n keeps the band covering every column.
func testPattern(t *testing.T, m, n, band, extra int, rng *rand.Rand) *Pattern {
	t.Helper()
	on := make([]bool, m*n)
	for i := 0; i < m; i++ {
		for d := 0; d < band; d++ {
			on[i*n+(i%n+d)%n] = true
		}
	}
	for e := 0; e < extra; e++ {
		on[rng.IntN(m*n)] = true
	}
	var rows, cols []int
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if on[i*n+j] {
				rows = append(rows, i)
				cols = append(cols, j)
			}
		}
	}
	pt, err := NewPatternFromTriplets(m, n, rows, cols)
	if err != nil {
		t.Fatalf("testPattern: %v", err)
	}
	return pt
}

// sparseFamily builds a small CSR problem of the given kind on a banded
// random support, optionally with box bounds on the stored cells. Every
// instance is feasible by construction.
func sparseFamily(t *testing.T, kind Kind, bounded bool, seed uint64) *DiagonalProblem {
	t.Helper()
	m, n := 24, 17
	if kind == Balanced {
		m, n = 20, 20
	}
	rng := rand.New(rand.NewPCG(seed, 11))
	pt := testPattern(t, m, n, 3, m*n/6, rng)
	nnz := pt.Nnz()
	x0 := make([]float64, nnz)
	gamma := make([]float64, nnz)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*10
		gamma[k] = 0.5 + rng.Float64()
	}
	rowSum := make([]float64, m)
	colSum := make([]float64, n)
	for i := 0; i < m; i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			rowSum[i] += x0[k]
			colSum[pt.ColIdx[k]] += x0[k]
		}
	}
	p := &DiagonalProblem{M: m, N: n, X0: x0, Gamma: gamma, Pattern: pt, Kind: kind}
	switch kind {
	case FixedTotals:
		p.S0 = make([]float64, m)
		p.D0 = make([]float64, n)
		for i := range p.S0 {
			p.S0[i] = 1.25 * rowSum[i]
		}
		for j := range p.D0 {
			p.D0[j] = 1.25 * colSum[j]
		}
	case ElasticTotals:
		p.S0 = make([]float64, m)
		p.Alpha = make([]float64, m)
		for i := range p.S0 {
			p.S0[i] = 1.1 * rowSum[i]
			p.Alpha[i] = 0.5 + rng.Float64()
		}
		p.D0 = make([]float64, n)
		p.Beta = make([]float64, n)
		for j := range p.D0 {
			p.D0[j] = 0.95 * colSum[j]
			p.Beta[j] = 0.5 + rng.Float64()
		}
	case Balanced:
		p.S0 = make([]float64, n)
		p.Alpha = make([]float64, n)
		for i := range p.S0 {
			p.S0[i] = (rowSum[i] + colSum[i]) / 2 * (0.9 + 0.2*rng.Float64())
			p.Alpha[i] = 1 / p.S0[i]
		}
	case IntervalTotals:
		p.SLo = make([]float64, m)
		p.SHi = make([]float64, m)
		for i := range p.SLo {
			p.SLo[i] = 0.9 * rowSum[i]
			p.SHi[i] = 1.4 * rowSum[i]
		}
		p.DLo = make([]float64, n)
		p.DHi = make([]float64, n)
		for j := range p.DLo {
			p.DLo[j] = 0.9 * colSum[j]
			p.DHi[j] = 1.4 * colSum[j]
		}
	}
	if bounded {
		p.Upper = make([]float64, nnz)
		p.Lower = make([]float64, nnz)
		for k := range p.Upper {
			// Generous boxes keep the instance feasible; every fourth cell is
			// unbounded above to exercise the +Inf path.
			p.Upper[k] = 3*x0[k] + 5
			if k%4 == 0 {
				p.Upper[k] = math.Inf(1)
			}
			p.Lower[k] = 0.01 * x0[k]
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("sparseFamily(%v, bounded=%v): %v", kind, bounded, err)
	}
	return p
}

// sparseFamilies enumerates the CSR example families the storage tests run
// over: every problem kind, with and without box bounds.
func sparseFamilies(t *testing.T) map[string]*DiagonalProblem {
	t.Helper()
	return map[string]*DiagonalProblem{
		"fixed":            sparseFamily(t, FixedTotals, false, 1),
		"fixed/bounded":    sparseFamily(t, FixedTotals, true, 2),
		"elastic":          sparseFamily(t, ElasticTotals, false, 3),
		"elastic/bounded":  sparseFamily(t, ElasticTotals, true, 4),
		"balanced":         sparseFamily(t, Balanced, false, 5),
		"interval":         sparseFamily(t, IntervalTotals, false, 6),
		"interval/bounded": sparseFamily(t, IntervalTotals, true, 7),
	}
}

// TestCSRMatchesDensifiedAcrossProcs is the storage refactor's core property:
// a CSR problem and its densified form (structural zeros made explicit as
// [0,0]-pinned cells) solve to bit-identical X on the support, exact zeros on
// the holes, and bit-identical S, D, multipliers, and iteration counts — for
// every family and every worker count. The kernel skips pinned variables when
// building its breakpoint events, so the two solves follow the same
// floating-point trajectory.
func TestCSRMatchesDensifiedAcrossProcs(t *testing.T) {
	for name, sp := range sparseFamilies(t) {
		t.Run(name, func(t *testing.T) {
			dense, err := sp.Densify()
			if err != nil {
				t.Fatalf("densify: %v", err)
			}
			pt := sp.Pattern
			m, n := sp.M, sp.N
			for _, procs := range []int{1, 2, 7, 16} {
				opts := func() *Options {
					o := DefaultOptions()
					o.Criterion = MaxAbsDelta
					o.Epsilon = 1e-8
					o.Procs = procs
					return o
				}
				cs, err := SolveDiagonal(context.Background(), sp, opts())
				if err != nil {
					t.Fatalf("procs=%d: csr solve: %v", procs, err)
				}
				ds, err := SolveDiagonal(context.Background(), dense, opts())
				if err != nil {
					t.Fatalf("procs=%d: dense solve: %v", procs, err)
				}
				if cs.Iterations != ds.Iterations || cs.Converged != ds.Converged {
					t.Fatalf("procs=%d: csr %d iterations (converged=%v), dense %d (converged=%v)",
						procs, cs.Iterations, cs.Converged, ds.Iterations, ds.Converged)
				}
				if len(cs.X) != pt.Nnz() {
					t.Fatalf("procs=%d: csr X has length %d, want nnz = %d", procs, len(cs.X), pt.Nnz())
				}
				// Support cells bit-identical; holes exactly zero (compared by
				// value: the sign of a zero is not observable through the
				// pinned box).
				seen := make([]bool, m*n)
				for i := 0; i < m; i++ {
					for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
						d := i*n + int(pt.ColIdx[k])
						seen[d] = true
						if math.Float64bits(cs.X[k]) != math.Float64bits(ds.X[d]) {
							t.Fatalf("procs=%d: X at cell %d (dense %d) = %v csr vs %v dense",
								procs, k, d, cs.X[k], ds.X[d])
						}
					}
				}
				for d, s := range seen {
					if !s && ds.X[d] != 0 {
						t.Fatalf("procs=%d: structural zero at dense index %d solved to %v", procs, d, ds.X[d])
					}
				}
				bitEq := func(field string, a, b []float64) {
					t.Helper()
					if len(a) != len(b) {
						t.Fatalf("procs=%d: %s length %d vs %d", procs, field, len(a), len(b))
					}
					for i := range a {
						if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
							t.Fatalf("procs=%d: %s[%d] = %v csr vs %v dense", procs, field, i, a[i], b[i])
						}
					}
				}
				bitEq("S", cs.S, ds.S)
				bitEq("D", cs.D, ds.D)
				bitEq("Lambda", cs.Lambda, ds.Lambda)
				bitEq("Mu", cs.Mu, ds.Mu)
			}
		})
	}
}

// TestSparsifyDensifyRoundTrip: densify∘sparsify is the identity on every CSR
// family, and sparsify recovers a densified problem's pattern exactly.
func TestSparsifyDensifyRoundTrip(t *testing.T) {
	for name, sp := range sparseFamilies(t) {
		t.Run(name, func(t *testing.T) {
			dense, err := sp.Densify()
			if err != nil {
				t.Fatalf("densify: %v", err)
			}
			back, err := dense.Sparsify()
			if err != nil {
				t.Fatalf("sparsify: %v", err)
			}
			if back.Pattern.Nnz() != sp.Pattern.Nnz() {
				t.Fatalf("round trip nnz %d, want %d", back.Pattern.Nnz(), sp.Pattern.Nnz())
			}
			for i := range sp.Pattern.RowPtr {
				if back.Pattern.RowPtr[i] != sp.Pattern.RowPtr[i] {
					t.Fatalf("RowPtr[%d] = %d, want %d", i, back.Pattern.RowPtr[i], sp.Pattern.RowPtr[i])
				}
			}
			for k := range sp.Pattern.ColIdx {
				if back.Pattern.ColIdx[k] != sp.Pattern.ColIdx[k] {
					t.Fatalf("ColIdx[%d] = %d, want %d", k, back.Pattern.ColIdx[k], sp.Pattern.ColIdx[k])
				}
				if back.X0[k] != sp.X0[k] || back.Gamma[k] != sp.Gamma[k] {
					t.Fatalf("cell %d values changed in round trip", k)
				}
				if sp.Upper != nil && back.Upper[k] != sp.Upper[k] {
					t.Fatalf("Upper[%d] = %v, want %v", k, back.Upper[k], sp.Upper[k])
				}
				if sp.Lower != nil && back.Lower[k] != sp.Lower[k] {
					t.Fatalf("Lower[%d] = %v, want %v", k, back.Lower[k], sp.Lower[k])
				}
			}
			if sp.Upper == nil && back.Upper != nil {
				t.Fatal("round trip materialized Upper bounds the original did not have")
			}
			if sp.Lower == nil && back.Lower != nil {
				t.Fatal("round trip materialized Lower bounds the original did not have")
			}
		})
	}
}

// TestValidateSparse covers the CSR structural rejections: disordered and
// duplicate column indices, broken row pointers, out-of-range columns, and
// per-cell arrays (including bounds) not aligned to nnz.
func TestValidateSparse(t *testing.T) {
	base := func() *DiagonalProblem { return sparseFamily(t, FixedTotals, true, 8) }

	if err := base().Validate(); err != nil {
		t.Fatalf("base problem invalid: %v", err)
	}

	cases := map[string]func(*DiagonalProblem){
		"out-of-order columns": func(p *DiagonalProblem) {
			lo := p.Pattern.RowPtr[0]
			p.Pattern.ColIdx[lo], p.Pattern.ColIdx[lo+1] = p.Pattern.ColIdx[lo+1], p.Pattern.ColIdx[lo]
		},
		"duplicate columns": func(p *DiagonalProblem) {
			lo := p.Pattern.RowPtr[0]
			p.Pattern.ColIdx[lo+1] = p.Pattern.ColIdx[lo]
		},
		"row pointer not monotone": func(p *DiagonalProblem) {
			p.Pattern.RowPtr[1] = p.Pattern.RowPtr[2] + 1
		},
		"row pointer origin": func(p *DiagonalProblem) {
			p.Pattern.RowPtr[0] = 1
		},
		"row pointer total": func(p *DiagonalProblem) {
			p.Pattern.RowPtr[p.M]--
		},
		"column out of range": func(p *DiagonalProblem) {
			p.Pattern.ColIdx[p.Pattern.Nnz()-1] = int32(p.N)
		},
		"x0 not nnz-aligned": func(p *DiagonalProblem) {
			p.X0 = p.X0[:len(p.X0)-1]
		},
		"gamma not nnz-aligned": func(p *DiagonalProblem) {
			p.Gamma = append(p.Gamma, 1)
		},
		"upper not nnz-aligned": func(p *DiagonalProblem) {
			p.Upper = p.Upper[:len(p.Upper)-1]
		},
		"lower not nnz-aligned": func(p *DiagonalProblem) {
			p.Lower = append(p.Lower, 0)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			p := base()
			corrupt(p)
			if err := p.Validate(); err == nil {
				t.Fatal("Validate accepted a corrupted CSR problem")
			}
		})
	}
}

// TestNewPatternFromTripletsRejects: the triplet reader accepts only the
// canonical stored order, so the JSON encoding stays a fixed point.
func TestNewPatternFromTripletsRejects(t *testing.T) {
	cases := map[string]struct {
		rows, cols []int
	}{
		"length mismatch":      {[]int{0, 0}, []int{0}},
		"row out of range":     {[]int{3}, []int{0}},
		"column out of range":  {[]int{0}, []int{4}},
		"negative row":         {[]int{-1}, []int{0}},
		"rows out of order":    {[]int{1, 0}, []int{0, 0}},
		"columns out of order": {[]int{0, 0}, []int{2, 1}},
		"duplicate cell":       {[]int{0, 0}, []int{1, 1}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := NewPatternFromTriplets(3, 4, c.rows, c.cols); err == nil {
				t.Fatal("NewPatternFromTriplets accepted a non-canonical input")
			}
		})
	}
	pt, err := NewPatternFromTriplets(3, 4, []int{0, 0, 2}, []int{1, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := pt.Triplets()
	want := [][2]int{{0, 1}, {0, 3}, {2, 0}}
	for k, w := range want {
		if rows[k] != w[0] || cols[k] != w[1] {
			t.Fatalf("triplet %d = (%d,%d), want (%d,%d)", k, rows[k], cols[k], w[0], w[1])
		}
	}
	if pt.RowNnz(1) != 0 {
		t.Fatalf("RowNnz(1) = %d, want 0 (empty row)", pt.RowNnz(1))
	}
	if i, j := pt.Cell(2); i != 2 || j != 0 {
		t.Fatalf("Cell(2) = (%d,%d), want (2,0)", i, j)
	}
}

// TestCSRSteadyStateAllocs guards the sparse hot path's allocation flatness:
// repeated same-shape CSR solves on one arena must not allocate per entry —
// the CSC mirror, phase buffers, and kernel scratch are all adopted from the
// previous solve.
func TestCSRSteadyStateAllocs(t *testing.T) {
	p := sparseFamily(t, FixedTotals, false, 9)
	ar := NewArena()
	defer ar.Close()
	solve := func() {
		o := DefaultOptions()
		o.Criterion = MaxAbsDelta
		o.Epsilon = 1e-8
		o.Arena = ar
		if _, err := SolveDiagonal(context.Background(), p, o); err != nil {
			t.Fatal(err)
		}
	}
	solve() // cold: builds the arena state, CSC mirror, and kernel warm starts
	avg := testing.AllocsPerRun(20, solve)
	if avg > 8 {
		t.Errorf("steady-state CSR solve allocates %.1f allocs/op, want ≤ 8 (allocation-flat)", avg)
	}
}

// TestCSRColdWarmOnsetAllocsFlat: a cold, arena-less CSR solve that runs past
// warmOnset engages the kernel warm-start states mid-solve; their
// permutation buffers come from one slab per phase, split at the RowPtr/CSC
// offsets, so the solve's allocation count must not grow with the number of
// rows and columns.
func TestCSRColdWarmOnsetAllocsFlat(t *testing.T) {
	allocs := func(m int) float64 {
		rng := rand.New(rand.NewPCG(uint64(m), 29))
		pt := testPattern(t, m, m, 5, 0, rng)
		nnz := pt.Nnz()
		p := &DiagonalProblem{M: m, N: m, Pattern: pt, Kind: ElasticTotals,
			X0: make([]float64, nnz), Gamma: make([]float64, nnz),
			S0: make([]float64, m), Alpha: make([]float64, m), D0: make([]float64, m), Beta: make([]float64, m)}
		for k := range p.X0 {
			p.X0[k] = rng.Float64() * 10
			p.Gamma[k] = 0.5 + rng.Float64()
		}
		for i := 0; i < m; i++ {
			p.S0[i], p.Alpha[i] = 30+rng.Float64()*10, 0.05+rng.Float64()*0.05
			p.D0[i], p.Beta[i] = 20+rng.Float64()*10, 0.05+rng.Float64()*0.05
		}
		o := DefaultOptions()
		o.Criterion = MaxAbsDelta
		o.Epsilon = 1e-10
		o.MaxIterations = 5000
		sol, err := SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Iterations <= warmOnset+1 {
			t.Fatalf("m=%d converged in %d iterations; the test needs > %d to engage warm starts", m, sol.Iterations, warmOnset+1)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := SolveDiagonal(context.Background(), p, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Scratch that grows by doubling may take a step or two more at the
	// larger size; one allocation per subproblem would add hundreds.
	small, large := allocs(40), allocs(320)
	if large > small+4 {
		t.Fatalf("cold CSR solve allocates %.0f/op at m=320 vs %.0f/op at m=40; the warm-start states must not allocate per subproblem", large, small)
	}
}
