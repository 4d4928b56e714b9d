package scale

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randCSR builds an m×n banded support with deterministic positive values,
// returning both the CSR view and its densified twin (zeros off support).
func randCSR(t *testing.T, m, n, band int, seed int64) (csr Matrix, dense Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rowPtr := make([]int, m+1)
	var colIdx []int32
	var val []float64
	dval := make([]float64, m*n)
	for i := 0; i < m; i++ {
		rowPtr[i] = len(colIdx)
		for b := 0; b < band; b++ {
			j := (i + b*7) % n
			// Keep column indices strictly ascending per row.
			if len(colIdx) > rowPtr[i] && int32(j) <= colIdx[len(colIdx)-1] {
				continue
			}
			x := 0.1 + 10*rng.Float64()
			colIdx = append(colIdx, int32(j))
			val = append(val, x)
			dval[i*n+j] = x
		}
	}
	rowPtr[m] = len(colIdx)
	return CSR(m, n, val, rowPtr, colIdx), Dense(m, n, dval)
}

func TestSinkhornBalancesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n := 17, 23
	val := make([]float64, m*n)
	for k := range val {
		val[k] = 0.5 + rng.Float64()
	}
	a := Dense(m, n, val)
	r := make([]float64, m)
	c := make([]float64, n)
	// Consistent targets: Σr = Σc by construction.
	for i := range r {
		r[i] = 1 + float64(i)
	}
	var total float64
	for _, x := range r {
		total += x
	}
	for j := range c {
		c[j] = total / float64(n)
	}
	u, v, res, err := Sinkhorn(a, r, c, nil, nil, SinkhornOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	// Verify the scaled row/column sums directly.
	for i := 0; i < m; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += u[i] * val[i*n+j] * v[j]
		}
		if math.Abs(s-r[i]) > 1e-9*r[i] {
			t.Fatalf("row %d: sum %g want %g", i, s, r[i])
		}
	}
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < m; i++ {
			s += u[i] * val[i*n+j] * v[j]
		}
		if math.Abs(s-c[j]) > 1e-9*c[j] {
			t.Fatalf("col %d: sum %g want %g", j, s, c[j])
		}
	}
}

// A rank-one matrix balances exactly in one sweep — the Nathanson
// finite-termination case the detector must flag.
func TestSinkhornExactTermination(t *testing.T) {
	m, n := 6, 9
	val := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			val[i*n+j] = float64(i+1) * float64(j+2)
		}
	}
	r := make([]float64, m)
	c := make([]float64, n)
	for i := range r {
		r[i] = float64(n)
	}
	for j := range c {
		c[j] = float64(m)
	}
	_, _, res, err := Sinkhorn(Dense(m, n, val), r, c, nil, nil, SinkhornOptions{Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("rank-one prior should terminate exactly, got %+v", res)
	}
	if res.ExactIteration > 2 {
		t.Fatalf("exact termination took %d sweeps, want ≤ 2", res.ExactIteration)
	}
}

func TestSinkhornZeroRowColumn(t *testing.T) {
	// Row 1 is entirely zero. Target 0 is fine; positive target is
	// structurally infeasible.
	val := []float64{1, 2, 0, 0, 3, 4}
	a := Dense(3, 2, val)
	r := []float64{3, 0, 7}
	c := []float64{4, 6}
	if _, _, _, err := Sinkhorn(a, r, c, nil, nil, SinkhornOptions{}); err != nil {
		t.Fatalf("zero row with zero target: %v", err)
	}
	r[1] = 5
	if _, _, _, err := Sinkhorn(a, r, c, nil, nil, SinkhornOptions{}); !errors.Is(err, ErrStructure) {
		t.Fatalf("want ErrStructure, got %v", err)
	}
	// Zero column, positive target.
	val2 := []float64{1, 0, 2, 0}
	if _, _, _, err := Sinkhorn(Dense(2, 2, val2), []float64{1, 2}, []float64{3, 1}, nil, nil, SinkhornOptions{}); !errors.Is(err, ErrStructure) {
		t.Fatalf("want ErrStructure for zero column, got %v", err)
	}
}

// TestSinkhornDivergingFactorsNeverConverge: on a Mohr–Crown–Polenske
// pattern (row 0 can only fill column 0, whose target is smaller) the
// factors diverge until they overflow and the residual turns NaN. A NaN
// residual must keep the run unconverged, not be skipped as no worse than
// the rest.
func TestSinkhornDivergingFactorsNeverConverge(t *testing.T) {
	a := Dense(2, 2, []float64{5, 0, 1, 1})
	_, _, res, err := Sinkhorn(a, []float64{6, 2}, []float64{3, 5}, nil, nil, SinkhornOptions{Tol: 1e-6, MaxIters: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("converged after %d sweeps with residual %v on an unreachable pattern", res.Iterations, res.Residual)
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := Dense(2, 2, []float64{1, bad, 2, 3})
		if err := a.Validate(); !errors.Is(err, ErrNotFinite) {
			t.Fatalf("Validate(%v) = %v, want ErrNotFinite", bad, err)
		}
		if _, _, _, err := Sinkhorn(a, []float64{1, 1}, []float64{1, 1}, nil, nil, SinkhornOptions{}); !errors.Is(err, ErrNotFinite) {
			t.Fatalf("Sinkhorn(%v) = %v, want ErrNotFinite", bad, err)
		}
		sys := &System{A: Dense(2, 2, []float64{1, 1, 1, 1}), X0: []float64{1, bad, 1, 1},
			RowTarget: []float64{1, 1}, ColTarget: []float64{1, 1}}
		if err := sys.Validate(); !errors.Is(err, ErrNotFinite) {
			t.Fatalf("System.Validate(%v) = %v, want ErrNotFinite", bad, err)
		}
	}
	if _, _, _, err := Sinkhorn(Dense(1, 1, []float64{1}), []float64{math.Inf(1)}, []float64{1}, nil, nil, SinkhornOptions{}); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("non-finite target accepted: %v", err)
	}
}

// The procedures must treat a CSR matrix and its densified twin
// identically, bit for bit: the dense zeros contribute exact float zeros
// to every accumulation, in the same left-to-right order.
func TestCSRMatchesDenseBitwise(t *testing.T) {
	csr, dense := randCSR(t, 40, 31, 5, 7)
	r := make([]float64, 40)
	c := make([]float64, 31)
	csr.RowSums(r)
	rs2 := make([]float64, 40)
	dense.RowSums(rs2)
	for i := range r {
		if r[i] != rs2[i] {
			t.Fatalf("RowSums diverge at %d: %v vs %v", i, r[i], rs2[i])
		}
	}
	// Consistent positive targets from the support's own sums.
	csr.ColSums(c)
	u1, v1, res1, err := Sinkhorn(csr, r, c, nil, nil, SinkhornOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	u2, v2, res2, err := Sinkhorn(dense, r, c, nil, nil, SinkhornOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Iterations != res2.Iterations || res1.Residual != res2.Residual {
		t.Fatalf("results diverge: %+v vs %+v", res1, res2)
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatalf("u[%d]: %v vs %v", i, u1[i], u2[i])
		}
	}
	for j := range v1 {
		if v1[j] != v2[j] {
			t.Fatalf("v[%d]: %v vs %v", j, v1[j], v2[j])
		}
	}
}

// ISP on an unbounded system is exact block Gauss–Seidel on a linear
// system: it must converge to the KKT point, and the implied primal must
// satisfy both constraint families.
func TestISPUnboundedConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 12, 15
	a := make([]float64, m*n)
	x0 := make([]float64, m*n)
	for k := range a {
		a[k] = 0.2 + rng.Float64()
		x0[k] = -5 + 10*rng.Float64()
	}
	r := make([]float64, m)
	c := make([]float64, n)
	var total float64
	for i := range r {
		r[i] = 10 + float64(i)
		total += r[i]
	}
	for j := range c {
		c[j] = total / float64(n)
	}
	lo := make([]float64, m*n)
	for k := range lo {
		lo[k] = math.Inf(-1) // unbounded below: no clamping anywhere
	}
	sys := &System{A: Dense(m, n, a), X0: x0, Lo: lo, RowTarget: r, ColTarget: c}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	lambda := make([]float64, m)
	mu := make([]float64, n)
	res := sys.Run(lambda, mu, 500, 1e-11, nil, nil, nil)
	if !res.Converged {
		t.Fatalf("unbounded ISP did not converge: %+v", res)
	}
	x := make([]float64, m*n)
	if worst := sys.Eval(lambda, mu, x, nil, nil); worst > 1e-9 {
		t.Fatalf("final equation violation %g", worst)
	}
}

// Clamped ISP with elastic totals: the fixed point satisfies the KKT
// system including complementary slackness at the active bounds.
func TestISPClampedElastic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, n := 10, 10
	a := make([]float64, m*n)
	x0 := make([]float64, m*n)
	for k := range a {
		a[k] = 0.5 + rng.Float64()
		x0[k] = -2 + 3*rng.Float64() // many negative priors → active x ≥ 0
	}
	r := make([]float64, m)
	c := make([]float64, n)
	e := make([]float64, m)
	f := make([]float64, n)
	for i := range r {
		r[i] = 5 + float64(i)
		e[i] = 0.3
	}
	for j := range c {
		c[j] = 6 + float64(j)
		f[j] = 0.4
	}
	sys := &System{A: Dense(m, n, a), X0: x0, RowTarget: r, ColTarget: c, RowDiag: e, ColDiag: f}
	lambda := make([]float64, m)
	mu := make([]float64, n)
	res := sys.Run(lambda, mu, 2000, 1e-10, nil, nil, nil)
	if !res.Converged {
		t.Fatalf("clamped elastic ISP did not converge: %+v", res)
	}
	x := make([]float64, m*n)
	if worst := sys.Eval(lambda, mu, x, nil, nil); worst > 1e-8 {
		t.Fatalf("final equation violation %g", worst)
	}
	// Spot-check clamping actually engaged (otherwise the test is vacuous).
	zeros := 0
	for _, v := range x {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("expected some entries clamped at zero")
	}
}

func TestISPObserverAndSweepCap(t *testing.T) {
	sys := &System{
		A: Dense(2, 2, []float64{1, 1, 1, 1}), X0: []float64{0, 0, 0, 0},
		RowTarget: []float64{1, 1}, ColTarget: []float64{1, 1},
	}
	var iters []int
	res := sys.Run(make([]float64, 2), make([]float64, 2), 3, 0, nil, nil, func(t int, r float64) {
		iters = append(iters, t)
	})
	if res.Iterations != 3 || len(iters) != 3 {
		t.Fatalf("sweep cap not honored: %+v observed %v", res, iters)
	}
}

func TestPow2Near(t *testing.T) {
	cases := map[float64]float64{
		1: 1, 2: 2, 3: 4, 1.4: 1, 1.5: 2, 0.75: 1, 0.70: 0.5,
		1024: 1024, 0: 1, math.Inf(1): 1, math.NaN(): 1, -3: 1,
	}
	for in, want := range cases {
		if got := Pow2Near(in); got != want {
			t.Fatalf("Pow2Near(%v) = %v, want %v", in, got, want)
		}
	}
}

// TestISPStopsOnDivergence: on an infeasible box system (ispCase seed 63:
// the band's upper bounds cannot carry a row total) a row dual runs to
// +Inf and the residual turns NaN; Run returns after that sweep instead of
// spinning to its cap, and the NaN sweep is the last one observed.
func TestISPStopsOnDivergence(t *testing.T) {
	for _, resp := range []Response{Additive, Exponential} {
		s := ispCase(resp, 12, "csr-band", "box", "fixed", 63)
		lambda, mu := make([]float64, s.A.M), make([]float64, s.A.N)
		var last int
		var lastRes float64
		res := s.Run(lambda, mu, 1000, 1e-12, nil, nil, func(it int, r float64) { last, lastRes = it, r })
		if res.Converged || !math.IsNaN(res.Residual) || res.Iterations >= 1000 {
			t.Fatalf("response %d: Run = %+v, want a NaN residual well before the cap", resp, res)
		}
		if last != res.Iterations || !math.IsNaN(lastRes) {
			t.Errorf("response %d: last observed sweep %d (residual %v), Run stopped at %d", resp, last, lastRes, res.Iterations)
		}
	}
}

// TestISPNaNTargetNeverConverges: a NaN target makes its equation's
// violation NaN, and the residual folds keep it, so Run never reports
// convergence and Eval's residual is NaN — under dense paired rows, an odd
// tail row and CSR rows alike.
func TestISPNaNTargetNeverConverges(t *testing.T) {
	for _, storage := range []string{"dense", "csr-full"} {
		for _, side := range []string{"row", "column"} {
			s := ispCase(Additive, 13, storage, "classical", "elastic", 5)
			if side == "row" {
				s.RowTarget[12] = math.NaN()
			} else {
				s.ColTarget[3] = math.NaN()
			}
			m, n := s.A.M, s.A.N
			lambda, mu := make([]float64, m), make([]float64, n)
			res := s.Run(lambda, mu, 200, 1e-6, nil, nil, nil)
			if res.Converged || !math.IsNaN(res.Residual) {
				t.Errorf("%s/%s: Run = %+v, want a NaN residual and no convergence", storage, side, res)
			}
			x := make([]float64, s.A.Nnz())
			if worst := s.Eval(lambda, mu, x, nil, nil); !math.IsNaN(worst) {
				t.Errorf("%s/%s: Eval residual %v, want NaN", storage, side, worst)
			}
		}
	}
}
