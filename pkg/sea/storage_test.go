package sea

import (
	"context"
	"errors"
	"math"
	"testing"
)

// pinnedDense builds an m×n fixed-totals problem whose Upper bounds pin all
// but a band of cells at zero — support density band/n.
func pinnedDense(t *testing.T, m, n, band int) *DiagonalProblem {
	t.Helper()
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	upper := make([]float64, m*n)
	for k := range gamma {
		gamma[k] = 1
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for d := 0; d < band; d++ {
			j := (i%n + d) % n
			k := i*n + j
			x0[k] = 1 + float64(k%5)
			upper[k] = math.Inf(1)
			s0[i] += 1.5 * x0[k]
			d0[j] += 1.5 * x0[k]
		}
	}
	p := &DiagonalProblem{M: m, N: n, X0: x0, Gamma: gamma, S0: s0, D0: d0, Upper: upper, Kind: FixedTotals}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNewDiagonalAutoSparsifies: a large dense problem whose bounds pin most
// cells gets CSR storage automatically, and the solve returns support-order X.
func TestNewDiagonalAutoSparsifies(t *testing.T) {
	d := pinnedDense(t, 160, 120, 6) // 19200 cells ≥ 2^14, density 5%
	p, err := NewDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	if p.Diagonal.Pattern == nil {
		t.Fatal("NewDiagonal kept dense storage for a sparse 19200-cell problem")
	}
	if got := p.Diagonal.Pattern.Nnz(); got != 160*6 {
		t.Fatalf("auto-sparsified to nnz = %d, want %d", got, 160*6)
	}
	o := DefaultOptions()
	o.Epsilon = 1e-8
	sol, err := Solve(context.Background(), "sea", p, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.X) != p.Diagonal.Pattern.Nnz() {
		t.Fatalf("solution X has length %d, want nnz = %d", len(sol.X), p.Diagonal.Pattern.Nnz())
	}
}

// TestNewDiagonalKeepsSmallAndDenseProblems: below the size threshold or
// above the density threshold the dense hot path is kept.
func TestNewDiagonalKeepsSmallAndDenseProblems(t *testing.T) {
	small := pinnedDense(t, 20, 20, 3) // 400 cells < 2^14
	p, err := NewDiagonal(small)
	if err != nil {
		t.Fatal(err)
	}
	if p.Diagonal.Pattern != nil {
		t.Fatal("NewDiagonal sparsified a 400-cell problem")
	}

	dense := testFixed(t, 140, 140, 1.2) // no Upper bounds: full support
	p, err = NewDiagonal(dense)
	if err != nil {
		t.Fatal(err)
	}
	if p.Diagonal.Pattern != nil {
		t.Fatal("NewDiagonal sparsified a full-support problem")
	}
}

// TestNewDiagonalDenseOptOut: the explicit dense constructor never converts,
// and rejects problems already in CSR storage.
func TestNewDiagonalDenseOptOut(t *testing.T) {
	d := pinnedDense(t, 160, 120, 6)
	p, err := NewDiagonalDense(d)
	if err != nil {
		t.Fatal(err)
	}
	if p.Diagonal.Pattern != nil {
		t.Fatal("NewDiagonalDense converted to CSR")
	}

	sp, err := d.Sparsify()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiagonalDense(sp); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("NewDiagonalDense(csr) error = %v, want ErrInvalidProblem", err)
	}
}

// TestNewDiagonalCSRForcesConversion: the CSR constructor converts regardless
// of size, and passes CSR problems through unchanged.
func TestNewDiagonalCSRForcesConversion(t *testing.T) {
	d := pinnedDense(t, 20, 20, 3) // too small for auto-detection
	p, err := NewDiagonalCSR(d)
	if err != nil {
		t.Fatal(err)
	}
	if p.Diagonal.Pattern == nil {
		t.Fatal("NewDiagonalCSR kept dense storage")
	}
	if got := p.Diagonal.Pattern.Nnz(); got != 20*3 {
		t.Fatalf("nnz = %d, want %d", got, 20*3)
	}
	again, err := NewDiagonalCSR(p.Diagonal)
	if err != nil {
		t.Fatal(err)
	}
	if again.Diagonal != p.Diagonal {
		t.Fatal("NewDiagonalCSR re-converted an already-CSR problem")
	}

	if _, err := NewDiagonalCSR(nil); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("NewDiagonalCSR(nil) error = %v, want ErrInvalidProblem", err)
	}
}

// TestDenseOnlySolversRejectCSR: the solvers whose algorithms are defined on
// the full m×n grid (Dykstra's projections, the unsigned variant, and the
// general-representation lifts) refuse CSR storage with a typed error
// instead of misindexing.
func TestDenseOnlySolversRejectCSR(t *testing.T) {
	p, err := NewDiagonalCSR(pinnedDense(t, 20, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"dykstra", "unsigned", "sea-general", "rc", "bk", "projgrad"} {
		if _, err := Solve(context.Background(), solver, p, DefaultOptions()); !errors.Is(err, ErrInvalidProblem) {
			t.Errorf("solver %q on a CSR problem: error = %v, want ErrInvalidProblem", solver, err)
		}
	}

	// The SEA solver itself accepts CSR.
	o := DefaultOptions()
	o.Epsilon = 1e-8
	if _, err := Solve(context.Background(), "sea", p, o); err != nil {
		t.Errorf(`solver "sea" on a CSR problem: %v`, err)
	}
}
