package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestVecHelpers(t *testing.T) {
	xs := []float64{1, -2, 3}
	ys := []float64{4, 5, -6}
	if got := Sum(xs); got != 2 {
		t.Errorf("Sum = %g, want 2", got)
	}
	if got := Dot(xs, ys); got != 4-10-18 {
		t.Errorf("Dot = %g, want -24", got)
	}
	if got := MaxAbs(xs); got != 3 {
		t.Errorf("MaxAbs = %g, want 3", got)
	}
	if got := MaxAbsDiff(xs, ys); got != 9 {
		t.Errorf("MaxAbsDiff = %g, want 9", got)
	}
	zs := Clone(xs)
	AXPY(2, ys, zs)
	want := []float64{9, 8, -9}
	for i := range want {
		if zs[i] != want[i] {
			t.Errorf("AXPY[%d] = %g, want %g", i, zs[i], want[i])
		}
	}
	Scale(0.5, zs)
	if zs[0] != 4.5 {
		t.Errorf("Scale failed: %v", zs)
	}
	Fill(zs, 7)
	for _, v := range zs {
		if v != 7 {
			t.Errorf("Fill failed: %v", zs)
		}
	}
	if !AllNonNegative([]float64{0, 2}) || AllNonNegative([]float64{-1}) {
		t.Error("AllNonNegative wrong")
	}
}

// IsStrictlyDiagonallyDominant reports whether every row of w has
// diag > Σ_{j≠i}|off|.
func IsStrictlyDiagonallyDominant(w Weight) bool {
	return DominanceMargin(w) > 0
}

func TestVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestDiagonal(t *testing.T) {
	w := MustDiagonal([]float64{2, 3, 4})
	if w.Dim() != 3 {
		t.Fatalf("Dim = %d", w.Dim())
	}
	if w.Diag(1) != 3 {
		t.Errorf("Diag(1) = %g", w.Diag(1))
	}
	dst := make([]float64, 3)
	w.MulVec(dst, []float64{1, 1, 2})
	if dst[0] != 2 || dst[1] != 3 || dst[2] != 8 {
		t.Errorf("MulVec = %v", dst)
	}
	row := make([]float64, 3)
	w.Row(2, row)
	if row[0] != 0 || row[1] != 0 || row[2] != 4 {
		t.Errorf("Row = %v", row)
	}
	if !IsStrictlyDiagonallyDominant(w) {
		t.Error("diagonal matrix should be dominant")
	}
}

func TestNewDiagonalRejectsNonPositive(t *testing.T) {
	for _, bad := range [][]float64{{1, 0}, {-1}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := NewDiagonal(bad); err == nil {
			t.Errorf("NewDiagonal(%v) accepted", bad)
		}
	}
}

func TestUniformDiagonal(t *testing.T) {
	w := UniformDiagonal(4, 2.5)
	for i := 0; i < 4; i++ {
		if w.Diag(i) != 2.5 {
			t.Errorf("Diag(%d) = %g", i, w.Diag(i))
		}
	}
}

func TestDenseSym(t *testing.T) {
	data := []float64{
		4, 1, -1,
		1, 5, 2,
		-1, 2, 6,
	}
	w := MustDenseSym(3, data)
	if w.Diag(2) != 6 {
		t.Errorf("Diag(2) = %g", w.Diag(2))
	}
	if w.At(0, 2) != -1 {
		t.Errorf("At(0,2) = %g", w.At(0, 2))
	}
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	w.MulVec(dst, x)
	want := []float64{4 + 2 - 3, 1 + 10 + 6, -1 + 4 + 18}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Errorf("MulVec[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
	if !IsStrictlyDiagonallyDominant(w) {
		t.Error("expected dominant")
	}
}

func TestNewDenseSymRejectsAsymmetric(t *testing.T) {
	if _, err := NewDenseSym(2, []float64{1, 2, 3, 4}); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, err := NewDenseSym(2, []float64{1, 2, 3}); err == nil {
		t.Error("short data accepted")
	}
}

func TestMulVecRangeMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	n := 17
	data := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			data[i*n+j] = v
			data[j*n+i] = v
		}
	}
	w := MustDenseSym(n, data)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	full := make([]float64, n)
	w.MulVec(full, x)
	part := make([]float64, n)
	w.MulVecRange(part, x, 0, 5)
	w.MulVecRange(part, x, 5, 11)
	w.MulVecRange(part, x, 11, n)
	for i := range full {
		if full[i] != part[i] {
			t.Errorf("range product differs at %d: %g vs %g", i, full[i], part[i])
		}
	}
}

func TestImplicitSym(t *testing.T) {
	w := MustImplicitSym(40, 99, 500, 800, 0.9)
	// Symmetry.
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if w.At(i, j) != w.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Diagonal range.
	for i := 0; i < 40; i++ {
		d := w.Diag(i)
		if d < 500 || d > 800 {
			t.Errorf("diag %d = %g out of [500,800]", i, d)
		}
	}
	// Strict diagonal dominance by construction.
	if m := DominanceMargin(w); m <= 0 {
		t.Errorf("dominance margin %g <= 0", m)
	}
	// Determinism.
	w2 := MustImplicitSym(40, 99, 500, 800, 0.9)
	if w.At(3, 17) != w2.At(3, 17) {
		t.Error("not deterministic for same seed")
	}
	w3 := MustImplicitSym(40, 100, 500, 800, 0.9)
	if w.At(3, 17) == w3.At(3, 17) {
		t.Error("different seeds gave identical off-diagonal entry")
	}
	// Materialize agrees entrywise and on products.
	d := w.Materialize()
	x := make([]float64, 40)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	a := make([]float64, 40)
	b := make([]float64, 40)
	w.MulVec(a, x)
	d.MulVec(b, x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Errorf("materialized product differs at %d", i)
		}
	}
}

func TestImplicitSymValidation(t *testing.T) {
	if _, err := NewImplicitSym(0, 1, 500, 800, 0.9); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewImplicitSym(5, 1, -1, 800, 0.9); err == nil {
		t.Error("negative diagLo accepted")
	}
	if _, err := NewImplicitSym(5, 1, 500, 400, 0.9); err == nil {
		t.Error("diagHi<diagLo accepted")
	}
	if _, err := NewImplicitSym(5, 1, 500, 800, 1.5); err == nil {
		t.Error("dominance>1 accepted")
	}
}

func TestDominanceMarginNegative(t *testing.T) {
	w := MustDenseSym(2, []float64{1, 5, 5, 1})
	if IsStrictlyDiagonallyDominant(w) {
		t.Error("non-dominant matrix passed")
	}
	bad := MustDenseSym(2, []float64{-1, 0, 0, 1})
	if m := DominanceMargin(bad); !math.IsInf(m, -1) {
		t.Errorf("non-positive diagonal should give -Inf margin, got %g", m)
	}
}

// Property: for any vector x, the implicit matrix–vector product is linear:
// W(ax) = a(Wx).
func TestImplicitLinearityProperty(t *testing.T) {
	w := MustImplicitSym(12, 5, 500, 800, 0.5)
	f := func(scale float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e100 {
			return true
		}
		x := make([]float64, 12)
		for i := range x {
			x[i] = float64(i) - 6
		}
		ax := Clone(x)
		Scale(scale, ax)
		wx := make([]float64, 12)
		wax := make([]float64, 12)
		w.MulVec(wx, x)
		w.MulVec(wax, ax)
		for i := range wx {
			if math.Abs(wax[i]-scale*wx[i]) > 1e-6*(1+math.Abs(scale*wx[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDenseMulVec1000(b *testing.B) {
	n := 1000
	w := MustImplicitSym(n, 1, 500, 800, 0.9).Materialize()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	dst := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MulVec(dst, x)
	}
}

func BenchmarkImplicitMulVec1000(b *testing.B) {
	n := 1000
	w := MustImplicitSym(n, 1, 500, 800, 0.9)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	dst := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MulVec(dst, x)
	}
}
