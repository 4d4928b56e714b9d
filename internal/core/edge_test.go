package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestSingleCell: the 1×1 problem in every flavour.
func TestSingleCell(t *testing.T) {
	gamma := []float64{2}
	// Fixed: x must equal the total.
	pf, err := NewFixed(1, 1, []float64{3}, gamma, []float64{7}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := SolveDiagonal(context.Background(), pf, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sf.X[0]-7) > 1e-12 {
		t.Errorf("fixed 1×1: X = %g, want 7", sf.X[0])
	}
	// Elastic: min 2(x−3)² + (s−5)² + (d−9)² s.t. x=s=d.
	// Objective g(x) = 2(x−3)²+(x−5)²+(x−9)²; g'(x) = 4x−12+2x−10+2x−18 = 8x−40 → x = 5.
	pe, err := NewElastic(1, 1, []float64{3}, gamma, []float64{5}, []float64{1}, []float64{9}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	se, err := SolveDiagonal(context.Background(), pe, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(se.X[0]-5) > 1e-9 {
		t.Errorf("elastic 1×1: X = %g, want 5", se.X[0])
	}
	// Balanced 1×1: row total equals column total trivially; the estimate
	// trades x against the total prior: min 2(x−3)² + (s−6)², x=s →
	// g'(x) = 4x−12+2x−12 = 0 → x = 4.
	pb, err := NewBalanced(1, []float64{3}, gamma, []float64{6}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := SolveDiagonal(context.Background(), pb, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sb.X[0]-4) > 1e-9 {
		t.Errorf("balanced 1×1: X = %g, want 4", sb.X[0])
	}
}

// TestSingleRowAndColumn: degenerate shapes 1×n and m×1.
func TestSingleRowAndColumn(t *testing.T) {
	// 1×3 fixed: the row constraint and the columns pin everything:
	// x_j = d_j exactly.
	p, err := NewFixed(1, 3,
		[]float64{1, 2, 3}, []float64{1, 1, 1},
		[]float64{12}, []float64{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 4, 5}
	for j, w := range want {
		if math.Abs(sol.X[j]-w) > 1e-9 {
			t.Errorf("1×3: X[%d] = %g, want %g", j, sol.X[j], w)
		}
	}
	// 3×1 mirror.
	p2, err := NewFixed(3, 1,
		[]float64{1, 2, 3}, []float64{1, 1, 1},
		[]float64{3, 4, 5}, []float64{12})
	if err != nil {
		t.Fatal(err)
	}
	sol2, err := SolveDiagonal(context.Background(), p2, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if math.Abs(sol2.X[i]-w) > 1e-9 {
			t.Errorf("3×1: X[%d] = %g, want %g", i, sol2.X[i], w)
		}
	}
}

// TestZeroTotals: rows or columns pinned to zero force their cells to zero.
func TestZeroTotals(t *testing.T) {
	p, err := NewFixed(2, 2,
		[]float64{5, 5, 5, 5}, []float64{1, 1, 1, 1},
		[]float64{0, 10}, []float64{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Entries sitting exactly on a kernel breakpoint may leak O(ε) mass.
	if sol.X[0] > 1e-9 || sol.X[1] > 1e-9 {
		t.Errorf("zero-total row not zeroed: %v", sol.X[:2])
	}
	if math.Abs(sol.X[2]-4) > 1e-9 || math.Abs(sol.X[3]-6) > 1e-9 {
		t.Errorf("remaining row wrong: %v", sol.X[2:])
	}
}

// TestNegativePrior: negative prior entries are legal (the estimate is
// still constrained to be nonnegative) — the SPE isomorphism depends on it.
func TestNegativePrior(t *testing.T) {
	p, err := NewFixed(2, 2,
		[]float64{-3, 2, 2, -1}, []float64{1, 1, 1, 1},
		[]float64{2, 2}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range sol.X {
		if v < 0 {
			t.Errorf("X[%d] = %g negative", k, v)
		}
	}
	if rep := CheckKKT(p, sol); !rep.Satisfied(1e-7) {
		t.Errorf("KKT: %+v", rep)
	}
}

// TestExtremeWeightSpread: γ spanning six orders of magnitude must not
// break the kernel or the dual ascent. (The convergence rate degrades with
// the spread exactly as the paper's m_l/M_l² bound (63) predicts, so the
// spread and tolerance here are chosen to stay within a sane iteration
// budget; ten orders of magnitude would satisfy the theory but not a CI
// timeout.)
func TestExtremeWeightSpread(t *testing.T) {
	m, n := 3, 3
	x0 := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	gamma := []float64{1e-3, 1, 1e3, 1, 1e-2, 10, 1e2, 1, 1e-3}
	s0 := []float64{12, 30, 48}
	d0 := []float64{24, 30, 36}
	p, err := NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		t.Fatal(err)
	}
	o := tightOpts()
	o.Epsilon = 1e-6
	sol, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep := CheckKKT(p, sol); !rep.Satisfied(1e-4) {
		t.Errorf("KKT under extreme spread: %+v", rep)
	}
}

// TestHugeTotals: magnitudes around 1e12 (national accounts in dollars).
func TestHugeTotals(t *testing.T) {
	scale := 1e12
	p, err := NewFixed(2, 2,
		[]float64{1 * scale, 2 * scale, 3 * scale, 4 * scale},
		[]float64{1 / scale, 1 / scale, 1 / scale, 1 / scale},
		[]float64{4 * scale, 8 * scale}, []float64{5 * scale, 7 * scale})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Criterion = RelBalance // relative criterion for huge magnitudes
	o.Epsilon = 1e-12
	o.MaxIterations = 500000
	sol, err := SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]float64, 2)
	p.RowSums(sol.X, rs)
	for i := range rs {
		if math.Abs(rs[i]-p.S0[i]) > 1e-3*scale*1e-9 {
			t.Errorf("row %d total off by %g", i, rs[i]-p.S0[i])
		}
	}
}

// TestSTONERegression pins the balanced STONE solve to a snapshot of its
// account totals, guarding the whole diagonal-balanced pipeline against
// behavioural drift.
func TestSTONERegression(t *testing.T) {
	// Mirror problems.SAMFromDataset without importing it (cycle).
	x0 := []float64{
		0, 74.1, 17.2, 26.0, 13.5,
		105.2, 0, 5.9, 0, 0,
		22.4, 13.1, 0, 0, 0,
		0, 24.8, 6.3, 0, 0,
		10.7, 0, 0, 1.9, 0,
	}
	s0 := []float64{131.0, 112.5, 35.8, 31.4, 12.8}
	gamma := make([]float64, 25)
	for k, v := range x0 {
		gamma[k] = 1 / math.Max(v, 0.1)
	}
	alpha := make([]float64, 5)
	for i, v := range s0 {
		alpha[i] = 1 / v
	}
	p, err := NewBalanced(5, x0, gamma, s0, alpha)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveDiagonal(context.Background(), p, tightOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Invariants rather than exact floats: balance, objective band, and
	// receipts ordering (production remains the largest account).
	var rowSums [5]float64
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			rowSums[i] += sol.X[i*5+j]
		}
	}
	if rowSums[0] <= rowSums[1] || rowSums[1] <= rowSums[2] {
		t.Errorf("account size ordering changed: %v", rowSums)
	}
	if sol.Objective <= 0 || sol.Objective > 50 {
		t.Errorf("objective %g outside historical band (0, 50]", sol.Objective)
	}
	if !sol.Converged {
		t.Error("STONE did not converge")
	}
}

// TestPhaseErrorNamesFirstFailingSubproblem: a worker chunk reports its
// first failing subproblem in order, whatever stage fails it. Row 1 passes
// every pre-check and fails in its sweep: c = (1e16, −1e16, 1e16/3), a = 1,
// u = 1 and R = Σu = 3, whose breakpoint intercepts cancel only in exact
// arithmetic. Row 3, later in the same chunk, has a NaN coefficient, which
// its event build rejects. The phase must name row 1.
func TestPhaseErrorNamesFirstFailingSubproblem(t *testing.T) {
	const m, n = 5, 3
	p := &DiagonalProblem{M: m, N: n, Kind: FixedTotals,
		X0: make([]float64, m*n), Gamma: make([]float64, m*n), Upper: make([]float64, m*n),
		S0: make([]float64, m), D0: make([]float64, n)}
	for k := range p.X0 {
		p.X0[k], p.Gamma[k], p.Upper[k] = 1, 0.5, 10
	}
	for i := range p.S0 {
		p.S0[i] = 3
	}
	for j := range p.D0 {
		p.D0[j] = 5
	}
	copy(p.X0[1*n:], []float64{1e16, -1e16, 1e16 / 3})
	copy(p.Upper[1*n:], []float64{1, 1, 1})
	p.X0[3*n+1] = math.NaN()
	o := DefaultOptions()
	o.Procs = 1
	st := newDiagState(context.Background(), p, o.WithDefaults())
	defer st.close()
	err := st.rowPhase()
	if !errors.Is(err, ErrInfeasible) || !strings.HasPrefix(err.Error(), "row 1:") {
		t.Fatalf("err = %v, want row 1's infeasible sweep", err)
	}
}
