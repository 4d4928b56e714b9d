package scale

import (
	"math/rand"
	"testing"
)

// ispBenchSweeps is the relaxed sweeps per benchmark op: a fresh System
// escalates only after a 6-sweep window, so every op is exactly
// 2·ispBenchSweeps matrix passes (one row pass and one column pass each).
const ispBenchSweeps = 5

// speSystem builds an m×n elastic spatial price equilibrium's ISP system in
// the shape of the paper's Table 5 (x⁰ = −C/H < 0, so most cells clamp at
// zero), over a cyclic band of the given width in CSR, or dense when
// band ≥ n.
func speSystem(m, n, band int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	var a Matrix
	if band >= n {
		a = Dense(m, n, make([]float64, m*n))
	} else {
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
		a = CSR(m, n, make([]float64, len(colIdx)), rowPtr, colIdx)
	}
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

// BenchmarkISPRun times the ISP cell kernels: each op runs ispBenchSweeps
// relaxed sweeps from cold duals, and ns/cell-pass divides the time by the
// cells visited.
func BenchmarkISPRun(b *testing.B) {
	for _, c := range []struct {
		name string
		sys  *System
	}{
		{"dense-150x150-elastic", speSystem(150, 150, 150, 1)},
		{"csr-600x600-band20-elastic", speSystem(600, 600, 20, 2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, n := c.sys.A.M, c.sys.A.N
			lambda, mu := make([]float64, m), make([]float64, n)
			colSum, colASum := make([]float64, n), make([]float64, n)
			var sys System
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				clear(lambda)
				clear(mu)
				sys.Reuse(*c.sys) // fresh escalation state: relaxed sweeps only
				sys.Run(lambda, mu, ispBenchSweeps, 0, colSum, colASum, nil)
			}
			cells := float64(b.N) * 2 * ispBenchSweeps * float64(c.sys.A.Nnz())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell-pass")
		})
	}
}
