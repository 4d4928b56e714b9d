// Package problems generates the experiment instances of the paper's
// Sections 4 and 5, reproducing each table's documented construction: sizes,
// densities, value ranges, weighting schemes and growth factors. Where the
// paper used proprietary economic datasets, the generators reproduce their
// dimensions and structure (see DESIGN.md, substitution 2).
package problems

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"sea/internal/core"
	"sea/internal/datasets"
	"sea/internal/mat"
)

// gammaFloor keeps the reciprocal weights finite on structural zeros: a zero
// prior cell receives weight 1/gammaFloor, a strong (but not infinite) pull
// toward zero.
const gammaFloor = 0.1

// reciprocalWeights returns γ_ij = 1/max(x⁰_ij, gammaFloor) — the chi-square
// weighting the paper uses throughout Section 4.
func reciprocalWeights(x0 []float64) []float64 {
	g := make([]float64, len(x0))
	for k, v := range x0 {
		g[k] = 1 / math.Max(v, gammaFloor)
	}
	return g
}

// Table1 builds one of the large-scale diagonal problems of Table 1: an n×n
// matrix with 100% positive entries generated uniformly in [.1, 10000],
// γ = 1/x⁰, and each row/column total set to twice the corresponding prior
// sum.
func Table1(n int, seed uint64) *core.DiagonalProblem {
	rng := rand.New(rand.NewPCG(seed, 1))
	x0 := make([]float64, n*n)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*9999.9
	}
	gamma := make([]float64, n*n)
	for k := range gamma {
		gamma[k] = 1 / x0[k]
	}
	s0 := make([]float64, n)
	d0 := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s0[i] += 2 * x0[i*n+j]
			d0[j] += 2 * x0[i*n+j]
		}
	}
	p, err := core.NewFixed(n, n, x0, gamma, s0, d0)
	if err != nil {
		panic(fmt.Sprintf("problems: Table1(%d): %v", n, err))
	}
	return p
}

// IOVariant selects how an input/output instance is derived from its base
// table, matching the three examples in each of Table 2's series.
type IOVariant byte

const (
	// IOGrowth10 applies a 10% growth factor to the totals (…a examples).
	IOGrowth10 IOVariant = 'a'
	// IOGrowth100 applies a 100% growth factor (…b examples).
	IOGrowth100 IOVariant = 'b'
	// IOPerturbed keeps the original totals but perturbs each nonzero
	// entry by an additive term in [1,10] (…c examples).
	IOPerturbed IOVariant = 'c'
)

// IOSpec describes one input/output experiment instance.
type IOSpec struct {
	Name    string
	Sectors int
	// Density is the fraction of nonzero entries in the base table.
	Density float64
	Variant IOVariant
	Seed    uint64
}

// StandardIOSpecs returns the nine Table 2 instances: the aggregated 1972
// and 1977 U.S. construction-activity tables (205 sectors, 52% and 58%
// dense) and the disaggregated 1972 U.S. table (485 sectors, 16% dense).
func StandardIOSpecs() []IOSpec {
	specs := []IOSpec{}
	series := []struct {
		prefix  string
		sectors int
		density float64
		seed    uint64
	}{
		{"IOC72", 205, 0.52, 1972},
		{"IOC77", 205, 0.58, 1977},
		{"IO72", 485, 0.16, 72},
	}
	for _, s := range series {
		for _, v := range []IOVariant{IOGrowth10, IOGrowth100, IOPerturbed} {
			specs = append(specs, IOSpec{
				Name:    s.prefix + string(v),
				Sectors: s.sectors,
				Density: s.density,
				Variant: v,
				Seed:    s.seed,
			})
		}
	}
	return specs
}

// baseIOTable generates a synthetic inter-industry flow table with the given
// density: a core of large intra-sector and supplier flows with the long
// right tail characteristic of I/O data.
func baseIOTable(n int, density float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 2))
	x := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				// Log-uniform magnitudes: many small flows, few large.
				x[i*n+j] = math.Exp(rng.Float64()*7) * 0.5 // ~[0.5, 550]
			}
		}
	}
	return x
}

// IOTable builds the fixed-totals constrained matrix problem of one Table 2
// instance.
func IOTable(spec IOSpec) *core.DiagonalProblem {
	n := spec.Sectors
	base := baseIOTable(n, spec.Density, spec.Seed)
	rng := rand.New(rand.NewPCG(spec.Seed, uint64(spec.Variant)))

	x0 := mat.Clone(base)
	s0 := make([]float64, n)
	d0 := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s0[i] += base[i*n+j]
			d0[j] += base[i*n+j]
		}
	}
	switch spec.Variant {
	case IOGrowth10, IOGrowth100:
		growth := 1.10
		if spec.Variant == IOGrowth100 {
			growth = 2.0
		}
		for i := range s0 {
			s0[i] *= growth
		}
		for j := range d0 {
			d0[j] *= growth
		}
	case IOPerturbed:
		// Perturb nonzero entries by an additive term in [1,10]; the totals
		// remain those of the unperturbed table, which the estimate must
		// recover. Rebalance the target totals so Σs⁰ = Σd⁰ holds exactly.
		for k := range x0 {
			if x0[k] > 0 {
				x0[k] += 1 + rng.Float64()*9
			}
		}
	default:
		panic(fmt.Sprintf("problems: unknown IO variant %q", spec.Variant))
	}
	p, err := core.NewFixed(n, n, x0, reciprocalWeights(x0), s0, d0)
	if err != nil {
		panic(fmt.Sprintf("problems: IOTable(%s): %v", spec.Name, err))
	}
	return p
}

// SAMFromDataset turns an embedded miniature SAM into its Balanced
// estimation problem, with the chi-square weighting γ = 1/x⁰ (floored on
// structural zeros) and α = 1/s⁰.
func SAMFromDataset(s *datasets.SAM) *core.DiagonalProblem {
	n := s.N()
	alpha := make([]float64, n)
	for i, v := range s.S0 {
		alpha[i] = 1 / math.Max(v, gammaFloor)
	}
	p, err := core.NewBalanced(n, mat.Clone(s.X0), reciprocalWeights(s.X0), mat.Clone(s.S0), alpha)
	if err != nil {
		panic(fmt.Sprintf("problems: SAMFromDataset(%s): %v", s.Name, err))
	}
	return p
}

// RandomSAM builds a dense n-account SAM estimation problem, the
// construction behind Table 3's USDA82E instance (n = 133, perturbed to full
// density) and its large-scale S500, S750, S1000 examples.
func RandomSAM(n int, seed uint64) *core.DiagonalProblem {
	rng := rand.New(rand.NewPCG(seed, 3))
	x0 := make([]float64, n*n)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*999.9
	}
	s0 := make([]float64, n)
	for i := 0; i < n; i++ {
		var row, col float64
		for j := 0; j < n; j++ {
			row += x0[i*n+j]
			col += x0[j*n+i]
		}
		// Prior totals near, but not at, the (inconsistent) row/column
		// sums, perturbed ±10%.
		s0[i] = (row + col) / 2 * (0.9 + 0.2*rng.Float64())
	}
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = 1 / s0[i]
	}
	p, err := core.NewBalanced(n, x0, reciprocalWeights(x0), s0, alpha)
	if err != nil {
		panic(fmt.Sprintf("problems: RandomSAM(%d): %v", n, err))
	}
	return p
}

// bandPattern builds the wrap-around banded support the sparse generators
// use: row i stores the band columns {i, i+1, …, i+band−1} mod n, sorted
// ascending as CSR requires, for a support density of band/n. A cyclic band
// keeps every row and column at exactly band stored cells, so the
// transportation polytope over the pattern is never starved of support.
func bandPattern(m, n, band int) *core.Pattern {
	if band < 1 {
		band = 1
	}
	if band > n {
		band = n
	}
	rows := make([]int, 0, m*band)
	cols := make([]int, 0, m*band)
	buf := make([]int, band)
	for i := 0; i < m; i++ {
		for d := range buf {
			buf[d] = (i%n + d) % n
		}
		sort.Ints(buf)
		for _, c := range buf {
			rows = append(rows, i)
			cols = append(cols, c)
		}
	}
	pt, err := core.NewPatternFromTriplets(m, n, rows, cols)
	if err != nil {
		panic(fmt.Sprintf("problems: bandPattern(%d,%d,%d): %v", m, n, band, err))
	}
	return pt
}

// SparseBand returns the band width giving roughly 1% support density for an
// n×n banded instance (floor 4 so tiny CI-scale instances keep a workable
// support).
func SparseBand(n int) int {
	b := n / 100
	if b < 4 {
		b = 4
	}
	if b > n {
		b = n
	}
	return b
}

// SparseTable1 builds the CSR counterpart of Table1: an n×n fixed-totals
// problem whose support is the cyclic band of the given width, prior entries
// uniform in [.1, 10000] on the stored cells, γ = 1/x⁰, and each row/column
// total set to twice the corresponding prior sum. Per-cell arrays have length
// nnz = n·band and are indexed in stored (CSR) order.
func SparseTable1(n, band int, seed uint64) *core.DiagonalProblem {
	pt := bandPattern(n, n, band)
	rng := rand.New(rand.NewPCG(seed, 5))
	nnz := pt.Nnz()
	x0 := make([]float64, nnz)
	gamma := make([]float64, nnz)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*9999.9
		gamma[k] = 1 / x0[k]
	}
	s0 := make([]float64, n)
	d0 := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			s0[i] += 2 * x0[k]
			d0[pt.ColIdx[k]] += 2 * x0[k]
		}
	}
	p := &core.DiagonalProblem{M: n, N: n, X0: x0, Gamma: gamma, S0: s0, D0: d0, Pattern: pt, Kind: core.FixedTotals}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("problems: SparseTable1(%d,%d): %v", n, band, err))
	}
	return p
}

// SparseSAM builds a CSR social accounting matrix estimation problem: an n×n
// Balanced instance on the cyclic band of the given width, transaction priors
// uniform in [.1, 1000], γ = 1/x⁰, account totals near (±10%) the
// inconsistent prior row/column sums, and α = 1/s⁰.
func SparseSAM(n, band int, seed uint64) *core.DiagonalProblem {
	pt := bandPattern(n, n, band)
	rng := rand.New(rand.NewPCG(seed, 6))
	nnz := pt.Nnz()
	x0 := make([]float64, nnz)
	gamma := make([]float64, nnz)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*999.9
		gamma[k] = 1 / x0[k]
	}
	rowSum := make([]float64, n)
	colSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			rowSum[i] += x0[k]
			colSum[pt.ColIdx[k]] += x0[k]
		}
	}
	s0 := make([]float64, n)
	alpha := make([]float64, n)
	for i := range s0 {
		s0[i] = (rowSum[i] + colSum[i]) / 2 * (0.9 + 0.2*rng.Float64())
		alpha[i] = 1 / s0[i]
	}
	p := &core.DiagonalProblem{M: n, N: n, X0: x0, Gamma: gamma, S0: s0, Alpha: alpha, Pattern: pt, Kind: core.Balanced}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("problems: SparseSAM(%d,%d): %v", n, band, err))
	}
	return p
}
