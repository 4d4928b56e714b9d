package mat

import (
	"fmt"
	"math"
)

// Weight is a symmetric positive-definite weight matrix of a constrained
// matrix problem (the A, B or G of objective (1) in the paper). The splitting
// equilibration algorithm only ever needs the diagonal (for the projection
// step's fixed quadratic) and matrix–vector products (for the linear-term
// update), so that is all the interface exposes.
type Weight interface {
	// Dim returns the order of the matrix.
	Dim() int
	// Diag returns the i-th diagonal entry.
	Diag(i int) float64
	// At returns the (i,j) entry.
	At(i, j int) float64
	// Row copies row i into dst, which must have length Dim.
	Row(i int, dst []float64)
	// MulVec computes dst = W·x. dst and x must have length Dim and must
	// not alias.
	MulVec(dst, x []float64)
	// MulVecRange computes dst[i] = (W·x)[i] for lo <= i < hi, leaving the
	// other entries of dst untouched. It exists so callers can split a
	// product across processors.
	MulVecRange(dst, x []float64, lo, hi int)
}

// Diagonal is a diagonal weight matrix, stored as its diagonal.
type Diagonal struct {
	d []float64
}

// NewDiagonal returns a Diagonal with the given diagonal entries, which must
// all be strictly positive for the matrix to be positive definite.
func NewDiagonal(d []float64) (*Diagonal, error) {
	for i, v := range d {
		if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("mat: diagonal entry %d is %v, want finite positive", i, v)
		}
	}
	return &Diagonal{d: d}, nil
}

// MustDiagonal is NewDiagonal but panics on invalid input. Intended for
// generators and tests with known-good data.
func MustDiagonal(d []float64) *Diagonal {
	w, err := NewDiagonal(d)
	if err != nil {
		panic(err)
	}
	return w
}

// UniformDiagonal returns an n×n diagonal weight with every entry v.
func UniformDiagonal(n int, v float64) *Diagonal {
	d := make([]float64, n)
	Fill(d, v)
	return MustDiagonal(d)
}

func (w *Diagonal) Dim() int           { return len(w.d) }
func (w *Diagonal) Diag(i int) float64 { return w.d[i] }

func (w *Diagonal) At(i, j int) float64 {
	if i == j {
		return w.d[i]
	}
	return 0
}

func (w *Diagonal) Row(i int, dst []float64) {
	Fill(dst, 0)
	dst[i] = w.d[i]
}

func (w *Diagonal) MulVec(dst, x []float64) {
	for i, v := range w.d {
		dst[i] = v * x[i]
	}
}

func (w *Diagonal) MulVecRange(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = w.d[i] * x[i]
	}
}

// DenseSym is a fully dense symmetric weight matrix stored row-major.
type DenseSym struct {
	n    int
	data []float64 // n*n, row-major
}

// NewDenseSym wraps data (row-major, length n*n) as a symmetric matrix. It
// returns an error if the data is not symmetric to within a small relative
// tolerance, since the dual analysis of the paper assumes symmetry.
func NewDenseSym(n int, data []float64) (*DenseSym, error) {
	if len(data) != n*n {
		return nil, fmt.Errorf("mat: NewDenseSym: data length %d != %d", len(data), n*n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := data[i*n+j], data[j*n+i]
			if diff := math.Abs(a - b); diff > 1e-9*(1+math.Abs(a)) {
				return nil, fmt.Errorf("mat: NewDenseSym: asymmetric at (%d,%d): %g vs %g", i, j, a, b)
			}
		}
	}
	return &DenseSym{n: n, data: data}, nil
}

// MustDenseSym is NewDenseSym but panics on invalid input.
func MustDenseSym(n int, data []float64) *DenseSym {
	w, err := NewDenseSym(n, data)
	if err != nil {
		panic(err)
	}
	return w
}

func (w *DenseSym) Dim() int           { return w.n }
func (w *DenseSym) Diag(i int) float64 { return w.data[i*w.n+i] }

// At returns the (i,j) entry.
func (w *DenseSym) At(i, j int) float64 { return w.data[i*w.n+j] }

func (w *DenseSym) Row(i int, dst []float64) {
	copy(dst, w.data[i*w.n:(i+1)*w.n])
}

func (w *DenseSym) MulVec(dst, x []float64) {
	w.MulVecRange(dst, x, 0, w.n)
}

func (w *DenseSym) MulVecRange(dst, x []float64, lo, hi int) {
	n := w.n
	for i := lo; i < hi; i++ {
		row := w.data[i*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// ImplicitSym is a dense symmetric strictly diagonally dominant matrix whose
// entries are computed on demand from a seed, requiring O(1) storage. It
// stands in for the paper's fully dense randomly generated G matrices when
// the matrix itself would dominate memory. Diagonal entries lie in
// [DiagLo, DiagHi] and off-diagonal entries in [-offScale, offScale] with
// offScale chosen so that every row is strictly diagonally dominant with the
// requested margin.
type ImplicitSym struct {
	n        int
	seed     uint64
	diagLo   float64
	diagHi   float64
	offScale float64
}

// NewImplicitSym constructs an ImplicitSym of order n. dominance must lie in
// (0,1); the sum of off-diagonal magnitudes in any row is at most
// dominance·diagLo, guaranteeing strict diagonal dominance.
func NewImplicitSym(n int, seed uint64, diagLo, diagHi, dominance float64) (*ImplicitSym, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mat: NewImplicitSym: n = %d", n)
	}
	if !(diagLo > 0) || diagHi < diagLo {
		return nil, fmt.Errorf("mat: NewImplicitSym: bad diagonal range [%g,%g]", diagLo, diagHi)
	}
	if !(dominance > 0 && dominance < 1) {
		return nil, fmt.Errorf("mat: NewImplicitSym: dominance %g not in (0,1)", dominance)
	}
	off := 0.0
	if n > 1 {
		off = dominance * diagLo / float64(n-1)
	}
	return &ImplicitSym{n: n, seed: seed, diagLo: diagLo, diagHi: diagHi, offScale: off}, nil
}

// MustImplicitSym is NewImplicitSym but panics on invalid input.
func MustImplicitSym(n int, seed uint64, diagLo, diagHi, dominance float64) *ImplicitSym {
	w, err := NewImplicitSym(n, seed, diagLo, diagHi, dominance)
	if err != nil {
		panic(err)
	}
	return w
}

// splitmix64 is the SplitMix64 finalizer, a high-quality 64-bit mixer used
// to derive deterministic pseudorandom entries from (seed, i, j).
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a 64-bit hash to a float in [0,1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// At returns the (i,j) entry, computed deterministically from the seed.
func (w *ImplicitSym) At(i, j int) float64 {
	if i == j {
		h := splitmix64(w.seed ^ splitmix64(uint64(i)+1))
		return w.diagLo + unit(h)*(w.diagHi-w.diagLo)
	}
	if i > j {
		i, j = j, i
	}
	h := splitmix64(w.seed ^ splitmix64(uint64(i)*0x100000001b3+uint64(j)+7))
	return (2*unit(h) - 1) * w.offScale
}

func (w *ImplicitSym) Dim() int           { return w.n }
func (w *ImplicitSym) Diag(i int) float64 { return w.At(i, i) }

func (w *ImplicitSym) Row(i int, dst []float64) {
	for j := 0; j < w.n; j++ {
		dst[j] = w.At(i, j)
	}
}

func (w *ImplicitSym) MulVec(dst, x []float64) {
	w.MulVecRange(dst, x, 0, w.n)
}

func (w *ImplicitSym) MulVecRange(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for j := 0; j < w.n; j++ {
			s += w.At(i, j) * x[j]
		}
		dst[i] = s
	}
}

// Materialize converts w into an explicit DenseSym. Useful in tests; the
// result requires n² storage.
func (w *ImplicitSym) Materialize() *DenseSym {
	data := make([]float64, w.n*w.n)
	for i := 0; i < w.n; i++ {
		for j := 0; j < w.n; j++ {
			data[i*w.n+j] = w.At(i, j)
		}
	}
	return MustDenseSym(w.n, data)
}

// DominanceMargin returns the minimum over rows of
// (diag - Σ_{j≠i}|off|) / diag. A positive margin certifies strict diagonal
// dominance (and hence, with positive diagonal, positive definiteness).
func DominanceMargin(w Weight) float64 {
	n := w.Dim()
	row := make([]float64, n)
	margin := math.Inf(1)
	for i := 0; i < n; i++ {
		w.Row(i, row)
		var off float64
		for j, v := range row {
			if j != i {
				off += math.Abs(v)
			}
		}
		d := row[i]
		if d <= 0 {
			return math.Inf(-1)
		}
		if m := (d - off) / d; m < margin {
			margin = m
		}
	}
	return margin
}
