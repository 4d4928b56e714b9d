package sea

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"sea/internal/baseline"
)

// rasOpts returns options for the scaling solvers with tolerance eps and a
// cap of maxIter sweeps.
func rasOpts(eps float64, maxIter int) *Options {
	o := DefaultOptions()
	o.Epsilon = eps
	o.MaxIterations = maxIter
	return o
}

// TestRASBalancesFeasibleTable: on a positive prior with targets taken from
// another positive matrix, "ras" converges and meets both sets of totals.
func TestRASBalancesFeasibleTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 54))
	m, n := 6, 8
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = 0.5 + rng.Float64()*10
		gamma[k] = 1
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := 0.5 + rng.Float64()*10
			s0[i] += v
			d0[j] += v
		}
	}
	d, err := NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(context.Background(), "ras", mustDiagonal(t, d), rasOpts(1e-10, 10000))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged || sol.Status != StatusConverged {
		t.Fatalf("not converged: residual %g, status %v", sol.Residual, sol.Status)
	}
	rows, cols := make([]float64, m), make([]float64, n)
	d.RowSums(sol.X, rows)
	d.ColSums(sol.X, cols)
	for i := range rows {
		if math.Abs(rows[i]-s0[i]) > 1e-9*s0[i] {
			t.Errorf("row %d sums to %g, want %g", i, rows[i], s0[i])
		}
	}
	for j := range cols {
		if math.Abs(cols[j]-d0[j]) > 1e-9*d0[j] {
			t.Errorf("column %d sums to %g, want %g", j, cols[j], d0[j])
		}
	}
}

// TestRASPreservesZeros: scaling cannot move mass into a zero prior cell.
func TestRASPreservesZeros(t *testing.T) {
	d, err := NewFixed(2, 3, []float64{
		1, 0, 2,
		3, 4, 0,
	}, []float64{1, 1, 1, 1, 1, 1}, []float64{4, 6}, []float64{5, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(context.Background(), "ras", mustDiagonal(t, d), rasOpts(1e-9, 10000))
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[1] != 0 || sol.X[5] != 0 {
		t.Errorf("RAS moved mass into zero cells: %v", sol.X)
	}
}

// TestRASNonconvergence reproduces the Mohr–Crown–Polenske failure: a zero
// pattern that makes the targets unreachable. "ras" runs out of sweeps with
// a finite iterate — its diverging factors are absorbed into the matrix,
// never overflowed — while SEA solves the same instance.
func TestRASNonconvergence(t *testing.T) {
	// Row 0 can only place mass in column 0, but column 0's target is
	// smaller than row 0's: multiplicative scaling can never satisfy both.
	d, err := NewFixed(2, 2, []float64{
		5, 0,
		1, 1,
	}, []float64{1, 1, 1, 1}, []float64{6, 2}, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	p := mustDiagonal(t, d)
	// Long enough for the factors to pass the absorption limit many times.
	sol, err := Solve(context.Background(), "ras", p, rasOpts(1e-6, 5000))
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if sol.Converged || sol.Status != StatusMaxIterations || sol.Iterations != 5000 {
		t.Fatalf("converged=%v status=%v after %d sweeps on an infeasible zero pattern", sol.Converged, sol.Status, sol.Iterations)
	}
	for k, x := range sol.X {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("X[%d] = %v: the diverging factors leaked into the iterate", k, x)
		}
	}
	if sol.X[1] != 0 {
		t.Errorf("RAS moved mass into the zero cell: %v", sol.X)
	}

	// SEA, free to move mass into the zero cell, solves it.
	o := DefaultOptions()
	o.Criterion = DualGradient
	o.Epsilon = 1e-9
	sea, err := Solve(context.Background(), "sea", p, o)
	if err != nil {
		t.Fatal(err)
	}
	if sea.X[1] <= 0 {
		t.Errorf("SEA should place mass in the zero cell, got %g", sea.X[1])
	}
}

// TestRASStructuralError: a zero prior row with a positive target is
// rejected up front with baseline.ErrRASStructure; a negative prior cell
// and mismatched dimensions are errors too.
func TestRASStructuralError(t *testing.T) {
	ones := []float64{1, 1, 1, 1}
	zeroRow := &DiagonalProblem{M: 2, N: 2, X0: []float64{0, 0, 1, 1}, Gamma: ones,
		S0: []float64{3, 2}, D0: []float64{2, 3}, Kind: FixedTotals}
	if _, err := Solve(context.Background(), "ras", mustDiagonal(t, zeroRow), rasOpts(1e-6, 100)); !errors.Is(err, baseline.ErrRASStructure) {
		t.Errorf("zero row with positive target: err = %v, want ErrRASStructure", err)
	}
	negative := &DiagonalProblem{M: 2, N: 2, X0: []float64{1, -1, 1, 1}, Gamma: ones,
		S0: []float64{1, 1}, D0: []float64{1, 1}, Kind: FixedTotals}
	if _, err := Solve(context.Background(), "ras", &Problem{Diagonal: negative}, rasOpts(1e-6, 100)); err == nil {
		t.Error("negative prior accepted")
	}
	short := &DiagonalProblem{M: 2, N: 2, X0: []float64{1}, Gamma: ones,
		S0: []float64{1, 1}, D0: []float64{1, 1}, Kind: FixedTotals}
	if _, err := Solve(context.Background(), "ras", &Problem{Diagonal: short}, rasOpts(1e-6, 100)); !errors.Is(err, ErrInvalidProblem) {
		t.Errorf("dimension mismatch: err = %v, want ErrInvalidProblem", err)
	}
}

// TestRASCSRMatchesDensified: "ras" runs natively on CSR storage, and its
// iterate equals the densified problem's bit for bit on the support.
func TestRASCSRMatchesDensified(t *testing.T) {
	dense := pinnedDense(t, 20, 20, 3)
	csr, err := NewDiagonalCSR(dense)
	if err != nil {
		t.Fatal(err)
	}
	o := rasOpts(1e-10, 10000)
	a, err := Solve(context.Background(), "ras", csr, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), "ras", mustDiagonal(t, dense), o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || a.Residual != b.Residual {
		t.Fatalf("CSR: %d sweeps, residual %g; dense: %d, %g", a.Iterations, a.Residual, b.Iterations, b.Residual)
	}
	pt := csr.Diagonal.Pattern
	for i := 0; i < dense.M; i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			dv := b.X[i*dense.N+int(pt.ColIdx[k])]
			if math.Float64bits(a.X[k]) != math.Float64bits(dv) {
				t.Fatalf("X at (%d,%d): CSR %v vs dense %v", i, pt.ColIdx[k], a.X[k], dv)
			}
		}
	}
}

// TestRASGeneralProblem: on a general problem "ras" balances the dense
// prior — the same iterate as the diagonal problem with that prior and
// those totals — and reports the general objective at it.
func TestRASGeneralProblem(t *testing.T) {
	d := testFixed(t, 4, 5, 1.3)
	g, err := liftDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	o := rasOpts(1e-10, 10000)
	gen, err := Solve(context.Background(), "ras", mustGeneral(t, g), o)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := Solve(context.Background(), "ras", mustDiagonal(t, d), o)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Iterations != diag.Iterations {
		t.Fatalf("general: %d sweeps, diagonal: %d", gen.Iterations, diag.Iterations)
	}
	for k := range diag.X {
		if math.Float64bits(gen.X[k]) != math.Float64bits(diag.X[k]) {
			t.Fatalf("X[%d]: general %v vs diagonal %v", k, gen.X[k], diag.X[k])
		}
	}
	if want := g.Objective(gen.X, gen.S, gen.D); gen.Objective != want {
		t.Errorf("Objective = %v, want the general objective %v", gen.Objective, want)
	}
	if !math.IsNaN(gen.DualValue) || gen.Lambda != nil {
		t.Errorf("scaling reports no duals, got DualValue %v, Lambda %v", gen.DualValue, gen.Lambda)
	}
}
