package core

import (
	"fmt"
	"math"
	"sort"
)

// Storage identifies the memory layout of a problem's per-cell data (X0,
// Gamma, Upper, Lower).
type Storage int

const (
	// Dense is the classical layout: flat row-major []float64 of length m·n.
	Dense Storage = iota
	// CSR stores only the prior's support: a row-pointer/column-index
	// pattern plus value arrays of length nnz. Cells outside the support are
	// structurally zero — pinned at x = 0 — and are skipped by both
	// equilibration phases, so per-iteration cost and resident memory scale
	// with nnz instead of m·n.
	CSR
)

func (s Storage) String() string {
	switch s {
	case Dense:
		return "dense"
	case CSR:
		return "csr"
	default:
		return fmt.Sprintf("Storage(%d)", int(s))
	}
}

// Pattern is the sparsity pattern of a CSR problem: RowPtr has length m+1
// with RowPtr[i] ≤ RowPtr[i+1], and ColIdx[RowPtr[i]:RowPtr[i+1]] holds row
// i's column indices in strictly increasing order (no duplicates). Every
// per-cell array of the problem (X0, Gamma, Upper, Lower) is indexed by the
// same positions, so cell k of a CSR problem lives at row i with
// RowPtr[i] ≤ k < RowPtr[i+1] and column ColIdx[k].
//
// A Pattern is immutable once attached to a problem: solver state caches
// derived structures (the CSC view) keyed by the pattern's identity.
type Pattern struct {
	RowPtr []int
	ColIdx []int32
}

// Nnz returns the number of stored cells.
func (pt *Pattern) Nnz() int { return len(pt.ColIdx) }

// Validate checks the pattern's structural invariants against an m×n shape:
// row-pointer length and monotonicity, column indices in range and strictly
// increasing within each row (which also rejects duplicate entries).
func (pt *Pattern) Validate(m, n int) error {
	if pt == nil {
		return fmt.Errorf("core: nil pattern")
	}
	if len(pt.RowPtr) != m+1 {
		return fmt.Errorf("core: len(RowPtr) = %d, want m+1 = %d", len(pt.RowPtr), m+1)
	}
	if pt.RowPtr[0] != 0 {
		return fmt.Errorf("core: RowPtr[0] = %d, want 0", pt.RowPtr[0])
	}
	if pt.RowPtr[m] != len(pt.ColIdx) {
		return fmt.Errorf("core: RowPtr[%d] = %d, want len(ColIdx) = %d", m, pt.RowPtr[m], len(pt.ColIdx))
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("core: column count %d exceeds the CSR index range", n)
	}
	for i := 0; i < m; i++ {
		lo, hi := pt.RowPtr[i], pt.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("core: RowPtr not monotone at row %d: %d > %d", i, lo, hi)
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			c := pt.ColIdx[k]
			if c < 0 || int(c) >= n {
				return fmt.Errorf("core: ColIdx[%d] = %d out of range [0,%d)", k, c, n)
			}
			if c <= prev {
				if c == prev {
					return fmt.Errorf("core: duplicate column %d in row %d", c, i)
				}
				return fmt.Errorf("core: ColIdx out of order in row %d: %d after %d", i, c, prev)
			}
			prev = c
		}
	}
	return nil
}

// Cell returns the (row, column) coordinates of stored position k.
func (pt *Pattern) Cell(k int) (i, j int) {
	i = sort.Search(len(pt.RowPtr)-1, func(r int) bool { return pt.RowPtr[r+1] > k })
	return i, int(pt.ColIdx[k])
}

// Triplets expands the pattern into parallel row/column index arrays in
// stored (row-major) order — the wire form used by the sparse JSON encoding.
func (pt *Pattern) Triplets() (rows, cols []int) {
	nnz := pt.Nnz()
	rows = make([]int, nnz)
	cols = make([]int, nnz)
	for i := 0; i < len(pt.RowPtr)-1; i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			rows[k] = i
			cols[k] = int(pt.ColIdx[k])
		}
	}
	return rows, cols
}

// NewPatternFromTriplets builds a Pattern from parallel row/column index
// arrays. The triplets must already be in canonical stored order — row-major,
// strictly increasing column within each row — which is what Triplets (and
// the JSON writer) emit; disordered or duplicate entries are rejected rather
// than silently sorted, so the encoding stays a fixed point.
func NewPatternFromTriplets(m, n int, rows, cols []int) (*Pattern, error) {
	if len(rows) != len(cols) {
		return nil, fmt.Errorf("core: len(rows) = %d but len(cols) = %d", len(rows), len(cols))
	}
	pt := &Pattern{
		RowPtr: make([]int, m+1),
		ColIdx: make([]int32, len(cols)),
	}
	prevRow, prevCol := 0, -1
	for k, r := range rows {
		c := cols[k]
		if r < 0 || r >= m || c < 0 || c >= n {
			return nil, fmt.Errorf("core: triplet %d = (%d,%d) out of range %d×%d", k, r, c, m, n)
		}
		if r < prevRow || (r == prevRow && c <= prevCol) {
			return nil, fmt.Errorf("core: triplet %d = (%d,%d) breaks canonical row-major order after (%d,%d)",
				k, r, c, prevRow, prevCol)
		}
		if r > prevRow {
			for i := prevRow; i < r; i++ {
				pt.RowPtr[i+1] = k
			}
			prevCol = -1
		}
		pt.ColIdx[k] = int32(c)
		prevRow, prevCol = r, c
	}
	for i := prevRow; i < m; i++ {
		pt.RowPtr[i+1] = len(cols)
	}
	return pt, nil
}

// Nnz returns the number of stored cells: the pattern's nnz for CSR
// problems, m·n for dense ones.
func (p *DiagonalProblem) Nnz() int {
	if p.Pattern != nil {
		return p.Pattern.Nnz()
	}
	return p.M * p.N
}

func cloneF(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append([]float64(nil), s...)
}

// Sparsify converts a dense problem to CSR over its support: the cells NOT
// structurally pinned at zero (Upper = 0 with lower bound 0). The conversion
// is semantics-preserving — a pinned-at-zero cell contributes nothing to the
// objective's optimum or the constraints — and solving the CSR form yields
// bit-identical X (on the support), S, D, multipliers, and iteration counts.
// A problem with no Upper bounds has full support, so sparsifying it is
// legal but saves nothing. CSR problems are returned unchanged.
func (p *DiagonalProblem) Sparsify() (*DiagonalProblem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Pattern != nil {
		return p, nil
	}
	m, n := p.M, p.N
	pinned := func(k int) bool {
		if p.Upper == nil || p.Upper[k] != 0 {
			return false
		}
		return p.Lower == nil || p.Lower[k] == 0
	}
	nnz := 0
	for k := range p.X0 {
		if !pinned(k) {
			nnz++
		}
	}
	pt := &Pattern{RowPtr: make([]int, m+1), ColIdx: make([]int32, 0, nnz)}
	q := &DiagonalProblem{
		M: m, N: n, Kind: p.Kind,
		X0:    make([]float64, 0, nnz),
		Gamma: make([]float64, 0, nnz),
		S0:    cloneF(p.S0), D0: cloneF(p.D0),
		Alpha: cloneF(p.Alpha), Beta: cloneF(p.Beta),
		SLo: cloneF(p.SLo), SHi: cloneF(p.SHi),
		DLo: cloneF(p.DLo), DHi: cloneF(p.DHi),
		Pattern: pt,
	}
	if p.Upper != nil {
		q.Upper = make([]float64, 0, nnz)
	}
	if p.Lower != nil {
		q.Lower = make([]float64, 0, nnz)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			k := i*n + j
			if pinned(k) {
				continue
			}
			pt.ColIdx = append(pt.ColIdx, int32(j))
			q.X0 = append(q.X0, p.X0[k])
			q.Gamma = append(q.Gamma, p.Gamma[k])
			if q.Upper != nil {
				q.Upper = append(q.Upper, p.Upper[k])
			}
			if q.Lower != nil {
				q.Lower = append(q.Lower, p.Lower[k])
			}
		}
		pt.RowPtr[i+1] = len(pt.ColIdx)
	}
	// Canonicalize vacuous bounds so sparsify∘densify is the identity on CSR
	// problems that had none: a support Upper of all +Inf (or Lower of all
	// zeros) encodes no constraint.
	if q.Upper != nil && allInf(q.Upper) {
		q.Upper = nil
	}
	if q.Lower != nil && allZero(q.Lower) {
		q.Lower = nil
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: sparsify produced an invalid problem: %w", err)
	}
	return q, nil
}

// Densify expands a CSR problem to the dense layout. Cells outside the
// support get X0 = 0, Gamma = 1, and the box [0, 0] (Upper = 0) — the
// explicit form of the structural pin — so the densified problem has exactly
// the same optimum, and (because the equilibration kernel skips pinned
// variables when building its breakpoint events) solves to bit-identical
// X/S/D and iteration counts. Dense problems are returned unchanged.
func (p *DiagonalProblem) Densify() (*DiagonalProblem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Pattern == nil {
		return p, nil
	}
	m, n := p.M, p.N
	if n != 0 && m > math.MaxInt/n {
		return nil, fmt.Errorf("core: densify: dimensions %d×%d overflow", m, n)
	}
	pt := p.Pattern
	q := &DiagonalProblem{
		M: m, N: n, Kind: p.Kind,
		X0:    make([]float64, m*n),
		Gamma: make([]float64, m*n),
		Upper: make([]float64, m*n),
		S0:    cloneF(p.S0), D0: cloneF(p.D0),
		Alpha: cloneF(p.Alpha), Beta: cloneF(p.Beta),
		SLo: cloneF(p.SLo), SHi: cloneF(p.SHi),
		DLo: cloneF(p.DLo), DHi: cloneF(p.DHi),
	}
	for k := range q.Gamma {
		q.Gamma[k] = 1 // holes need a valid positive weight; x is pinned there anyway
	}
	if p.Lower != nil {
		q.Lower = make([]float64, m*n)
	}
	for i := 0; i < m; i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			d := i*n + int(pt.ColIdx[k])
			q.X0[d] = p.X0[k]
			q.Gamma[d] = p.Gamma[k]
			if p.Upper != nil {
				q.Upper[d] = p.Upper[k]
			} else {
				q.Upper[d] = math.Inf(1)
			}
			if p.Lower != nil {
				q.Lower[d] = p.Lower[k]
			}
		}
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: densify produced an invalid problem: %w", err)
	}
	return q, nil
}

// SupportDensity returns the fraction of the m×n cells in the problem's
// support: Nnz/(m·n) for CSR storage, and for dense storage the fraction of
// cells not structurally pinned at zero by the bounds — the density Sparsify
// would produce.
func (p *DiagonalProblem) SupportDensity() float64 {
	if p.Pattern != nil {
		return float64(p.Pattern.Nnz()) / (float64(p.M) * float64(p.N))
	}
	nnz := 0
	for k := range p.X0 {
		if p.Upper == nil || p.Upper[k] != 0 || (p.Lower != nil && p.Lower[k] != 0) {
			nnz++
		}
	}
	return float64(nnz) / (float64(p.M) * float64(p.N))
}

func allInf(s []float64) bool {
	for _, v := range s {
		if !math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

func allZero(s []float64) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// resizeI returns buf with length n, reallocating only when capacity is
// short (the []int counterpart of resizeF).
func resizeI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// resizeI32 is resizeI for []int32.
func resizeI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
