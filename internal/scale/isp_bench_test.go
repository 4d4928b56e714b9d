package scale

import (
	"math/rand"
	"testing"
)

// ispBenchSweeps is the sweeps per benchmark op. A fresh additive System
// escalates only after a 6-sweep window, so its ops are exactly
// 2·ispBenchSweeps matrix passes (one row pass and one column pass each);
// exponential sweeps are exact, with a data-dependent number of Newton
// passes.
const ispBenchSweeps = 5

// bandMatrix returns an m×n matrix over a cyclic band of the given width in
// CSR, or dense when band ≥ n, with zero values to fill.
func bandMatrix(m, n, band int) Matrix {
	if band >= n {
		return Dense(m, n, make([]float64, m*n))
	}
	rowPtr := make([]int, m+1)
	var colIdx []int32
	for i := 0; i < m; i++ {
		rowPtr[i] = len(colIdx)
		for j := 0; j < n; j++ {
			if (j-i+n)%n < band {
				colIdx = append(colIdx, int32(j))
			}
		}
	}
	rowPtr[m] = len(colIdx)
	return CSR(m, n, make([]float64, len(colIdx)), rowPtr, colIdx)
}

// speSystem builds an m×n elastic spatial price equilibrium's ISP system in
// the shape of the paper's Table 5 (x⁰ = −C/H < 0, so most cells clamp at
// zero) over bandMatrix(m, n, band).
func speSystem(m, n, band int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	a := bandMatrix(m, n, band)
	s := &System{A: a, X0: make([]float64, a.Nnz())}
	for k := range s.X0 {
		c, h := 1+24*rng.Float64(), 0.3+0.9*rng.Float64()
		a.Val[k], s.X0[k] = 1/h, -c/h // a = 1/(2γ) with γ = H/2
	}
	s.RowTarget, s.RowDiag = make([]float64, m), make([]float64, m)
	for i := range s.RowTarget {
		p, r := 10+20*rng.Float64(), 0.3+0.7*rng.Float64()
		s.RowTarget[i], s.RowDiag[i] = -p/r, 1/r // s⁰ = −P/R, e = 1/(2α), α = R/2
	}
	s.ColTarget, s.ColDiag = make([]float64, n), make([]float64, n)
	for j := range s.ColTarget {
		q, w := 150+150*rng.Float64(), 0.3+0.7*rng.Float64()
		s.ColTarget[j], s.ColDiag[j] = q/w, 1/w
	}
	return s
}

// klSystem builds an m×n fixed-totals entropy system under the exponential
// response over bandMatrix(m, n, band): a positive prior, weights
// γ ∈ [0.5, 1.5), and totals that grow the prior's row sums by 10–50% and
// spread the same mass evenly over the columns.
func klSystem(m, n, band int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	a := bandMatrix(m, n, band)
	s := &System{Response: Exponential, A: a, X0: make([]float64, a.Nnz())}
	for k := range s.X0 {
		a.Val[k], s.X0[k] = 0.5+rng.Float64(), 0.5+10*rng.Float64()
	}
	s.RowTarget = make([]float64, m)
	var total float64
	for i := range s.RowTarget {
		lo, hi := a.Row(i)
		for k := lo; k < hi; k++ {
			s.RowTarget[i] += s.X0[k]
		}
		s.RowTarget[i] *= 1.1 + 0.4*rng.Float64()
		total += s.RowTarget[i]
	}
	s.ColTarget = make([]float64, n)
	for j := range s.ColTarget {
		s.ColTarget[j] = total / float64(n)
	}
	return s
}

// BenchmarkISPRun times the dual-scaling cell kernels under both responses:
// each op runs ispBenchSweeps sweeps from cold duals, and ns/cell-pass
// divides the time by the cells visited, counted once on the per-cell
// reference, which the kernels match step for step.
func BenchmarkISPRun(b *testing.B) {
	for _, c := range []struct {
		name string
		sys  *System
	}{
		{"dense-150x150-elastic", speSystem(150, 150, 150, 1)},
		{"dense-151x150-elastic", speSystem(151, 150, 150, 1)}, // odd: one unpaired row
		{"csr-600x600-band20-elastic", speSystem(600, 600, 20, 2)},
		{"dense-150x150-fixed-exponential", klSystem(150, 150, 150, 3)},
		{"csr-600x600-band20-fixed-exponential", klSystem(600, 600, 20, 4)},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, n := c.sys.A.M, c.sys.A.N
			lambda, mu := make([]float64, m), make([]float64, n)
			colSum, colASum := make([]float64, n), make([]float64, n)
			var sys System
			sys.Reuse(*c.sys)
			refVisits = 0
			refRun(&sys, lambda, mu, ispBenchSweeps, 0)
			visits := float64(refVisits)
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				clear(lambda)
				clear(mu)
				sys.Reuse(*c.sys) // fresh escalation state: relaxed additive sweeps only
				sys.Run(lambda, mu, ispBenchSweeps, 0, colSum, colASum, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*visits), "ns/cell-pass")
		})
	}
}
