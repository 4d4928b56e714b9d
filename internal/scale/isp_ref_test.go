package scale

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference ISP below is the original per-cell formulation: every cell
// visit goes through refClampAt and the Matrix accessors. The row/column
// kernels must reproduce it bit for bit — same clamps, same left-to-right
// summation — so λ, μ, every Result field and Eval's output agree exactly.

func refClampAt(s *System, k int, d float64) (x float64, interior bool) {
	x = s.X0[k] + s.A.Val[k]*d
	lo := 0.0
	if s.Lo != nil {
		lo = s.Lo[k]
	}
	if x <= lo {
		return lo, false
	}
	if s.Up != nil && x >= s.Up[k] {
		return s.Up[k], false
	}
	return x, true
}

func refSolveRow(s *System, i int, lambda, mu []float64, innerTol float64, inner int) (first float64) {
	target, diag := s.rowAbs(i, mu)
	lo, hi := s.A.Row(i)
	z := lambda[i]
	blo, bhi := math.Inf(-1), math.Inf(1)
	step := 1.0
	for it := 0; it < inner; it++ {
		var sum, asum float64
		for k := lo; k < hi; k++ {
			x, interior := refClampAt(s, k, z+mu[s.A.Col(i, k)])
			sum += x
			if interior {
				asum += s.A.Val[k]
			}
		}
		g := sum + diag*z - target
		if it == 0 {
			first = math.Abs(g)
		}
		if math.Abs(g) <= innerTol {
			break
		}
		next, ok := newtonStep(z, g, asum+diag, &blo, &bhi, &step)
		if !ok {
			break
		}
		z = next
	}
	lambda[i] = z
	return first
}

func refSolveColumns(s *System, lambda, mu, colSum, colASum []float64, innerTol float64, inner int) (first float64) {
	m, n := s.A.M, s.A.N
	for j := 0; j < n; j++ {
		s.colLo[j] = math.Inf(-1)
		s.colHi[j] = math.Inf(1)
	}
	step := 1.0
	for pass := 0; pass < inner; pass++ {
		for j := 0; j < n; j++ {
			colSum[j] = 0
			colASum[j] = 0
		}
		for i := 0; i < m; i++ {
			lo, hi := s.A.Row(i)
			for k := lo; k < hi; k++ {
				j := s.A.Col(i, k)
				x, interior := refClampAt(s, k, lambda[i]+mu[j])
				colSum[j] += x
				if interior {
					colASum[j] += s.A.Val[k]
				}
			}
		}
		var worst float64
		moved := false
		for j := 0; j < n; j++ {
			target, diag := s.colAbs(j, lambda)
			g := colSum[j] + diag*mu[j] - target
			if ag := math.Abs(g); ag > worst {
				worst = ag
			}
			if math.Abs(g) <= innerTol {
				continue
			}
			if next, ok := newtonStep(mu[j], g, colASum[j]+diag, &s.colLo[j], &s.colHi[j], &step); ok {
				mu[j] = next
				moved = true
			}
		}
		if pass == 0 {
			first = worst
		}
		if worst <= innerTol || !moved {
			break
		}
	}
	return first
}

func refRun(s *System, lambda, mu []float64, sweeps int, tol float64) Result {
	n := s.A.N
	colSum := make([]float64, n)
	colASum := make([]float64, n)
	s.colLo = resize(s.colLo, n)
	s.colHi = resize(s.colHi, n)
	innerTol := 0.0
	if tol > 0 {
		innerTol = tol / 4
	}
	if !s.runInit {
		s.runInit = true
		s.lastRes = math.Inf(1)
		s.winBest = math.Inf(1)
		s.prevWin = math.Inf(1)
	}
	var res Result
	for t := 1; t <= sweeps; t++ {
		res.Iterations = t
		inner := 1
		if s.runExact || (tol > 0 && s.lastRes <= 8*tol) {
			inner = ispMaxInner
		}
		var worst float64
		for i := 0; i < s.A.M; i++ {
			if r := refSolveRow(s, i, lambda, mu, innerTol, inner); r > worst {
				worst = r
			}
		}
		if r := refSolveColumns(s, lambda, mu, colSum, colASum, innerTol, inner); r > worst {
			worst = r
		}
		res.Residual = worst
		s.lastRes = worst
		if worst == 0 && !res.Exact {
			res.Exact = true
			res.ExactIteration = t
		}
		if tol > 0 && worst <= tol {
			res.Converged = true
			return res
		}
		if !s.runExact {
			if worst < s.winBest {
				s.winBest = worst
			}
			if s.winCount++; s.winCount >= 6 {
				if s.winBest >= 0.98*s.prevWin {
					s.runExact = true
				}
				s.prevWin = s.winBest
				s.winBest = math.Inf(1)
				s.winCount = 0
			}
		}
	}
	return res
}

func refEval(s *System, lambda, mu []float64, x []float64) (worst float64, rowSum, colSum []float64) {
	m, n := s.A.M, s.A.N
	rowSum = make([]float64, m)
	colSum = make([]float64, n)
	for i := 0; i < m; i++ {
		lo, hi := s.A.Row(i)
		var sum float64
		for k := lo; k < hi; k++ {
			j := s.A.Col(i, k)
			xv, _ := refClampAt(s, k, lambda[i]+mu[j])
			x[k] = xv
			sum += xv
			colSum[j] += xv
		}
		rowSum[i] = sum
	}
	for i := 0; i < m; i++ {
		target, diag := s.rowAbs(i, mu)
		if r := math.Abs(rowSum[i] + diag*lambda[i] - target); r > worst {
			worst = r
		}
	}
	for j := 0; j < n; j++ {
		target, diag := s.colAbs(j, lambda)
		if r := math.Abs(colSum[j] + diag*mu[j] - target); r > worst {
			worst = r
		}
	}
	return worst, rowSum, colSum
}

// ispCase builds an ISP system over the named storage, bounds and totals.
// Priors straddle zero and bounds sit inside the prior range, so every
// clamp branch engages.
func ispCase(storage, bounds, totals string, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	m, n := 12, 15
	if totals == "coupled" {
		n = m
	}
	var a Matrix
	switch storage {
	case "dense":
		a = Dense(m, n, nil)
	case "csr-band", "csr-full":
		rowPtr := make([]int, m+1)
		var colIdx []int32
		for i := 0; i < m; i++ {
			rowPtr[i] = len(colIdx)
			for j := 0; j < n; j++ {
				if storage == "csr-full" || (j-i+n)%n < 4 || (i-j+n)%n < 2 {
					colIdx = append(colIdx, int32(j))
				}
			}
		}
		rowPtr[m] = len(colIdx)
		a = CSR(m, n, nil, rowPtr, colIdx)
	default:
		panic(storage)
	}
	nv := a.Nnz()
	a.Val = make([]float64, nv)
	s := &System{A: a, X0: make([]float64, nv)}
	for k := 0; k < nv; k++ {
		a.Val[k] = 0.3 + rng.Float64()
		s.X0[k] = -2 + 5*rng.Float64()
	}
	if bounds != "classical" {
		s.Lo = make([]float64, nv)
		for k := range s.Lo {
			switch rng.Intn(4) {
			case 0:
				s.Lo[k] = math.Inf(-1)
			case 1:
				s.Lo[k] = 0
			default:
				s.Lo[k] = -1 + 1.5*rng.Float64()
			}
		}
	}
	if bounds == "box" {
		s.Up = make([]float64, nv)
		for k := range s.Up {
			if rng.Intn(5) == 0 {
				s.Up[k] = math.Inf(1)
			} else {
				s.Up[k] = math.Max(s.Lo[k], 0) + 0.5 + 2*rng.Float64()
			}
		}
	}
	s.RowTarget = make([]float64, m)
	var total float64
	for i := range s.RowTarget {
		s.RowTarget[i] = 4 + 6*rng.Float64()
		total += s.RowTarget[i]
	}
	s.ColTarget = make([]float64, n)
	for j := range s.ColTarget {
		s.ColTarget[j] = total / float64(n)
	}
	switch totals {
	case "elastic":
		s.RowDiag, s.ColDiag = make([]float64, m), make([]float64, n)
		for i := range s.RowDiag {
			s.RowDiag[i] = 0.1 + rng.Float64()
		}
		for j := range s.ColDiag {
			s.ColDiag[j] = 0.1 + rng.Float64()
		}
	case "coupled":
		s.Coupled = true
		s.ColTarget = nil
		s.RowDiag = make([]float64, m)
		for i := range s.RowDiag {
			s.RowDiag[i] = 0.1 + rng.Float64()
		}
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, k, got[k], want[k])
		}
	}
}

// TestISPKernelsMatchReference: the per-row kernels reproduce the per-cell
// reference bit for bit across storages, bound families, total kinds and
// sweep modes (relaxed only, escalating on its own, and exact from the
// start), over chunked Run calls so the persistent escalation state is
// compared too.
func TestISPKernelsMatchReference(t *testing.T) {
	type mode struct {
		name   string
		chunks []int
		tol    float64
		exact  bool
	}
	modes := []mode{
		{name: "relaxed", chunks: []int{4}},
		{name: "escalating", chunks: []int{5, 1, 200}, tol: 1e-10},
		{name: "exact", chunks: []int{3, 30}, tol: 1e-12, exact: true},
	}
	escalated, seed := 0, int64(0)
	for _, storage := range []string{"dense", "csr-band", "csr-full"} {
		for _, bounds := range []string{"classical", "lower", "box"} {
			for _, totals := range []string{"fixed", "elastic", "coupled"} {
				for _, md := range modes {
					seed++
					t.Run(fmt.Sprintf("%s/%s/%s/%s", storage, bounds, totals, md.name), func(t *testing.T) {
						sys := ispCase(storage, bounds, totals, seed)
						ref := ispCase(storage, bounds, totals, seed)
						if md.exact {
							sys.runInit, sys.runExact = true, true
							sys.lastRes, sys.winBest, sys.prevWin = math.Inf(1), math.Inf(1), math.Inf(1)
							ref.runInit, ref.runExact = true, true
							ref.lastRes, ref.winBest, ref.prevWin = math.Inf(1), math.Inf(1), math.Inf(1)
						}
						m, n := sys.A.M, sys.A.N
						lambda, mu := make([]float64, m), make([]float64, n)
						rl, rm := make([]float64, m), make([]float64, n)
						for c, sweeps := range md.chunks {
							got := sys.Run(lambda, mu, sweeps, md.tol, nil, nil, nil)
							want := refRun(ref, rl, rm, sweeps, md.tol)
							if got != want {
								t.Fatalf("chunk %d: Result %+v, reference %+v", c, got, want)
							}
							bitsEqual(t, "lambda", lambda, rl)
							bitsEqual(t, "mu", mu, rm)
							if sys.runExact != ref.runExact || sys.winCount != ref.winCount {
								t.Fatalf("chunk %d: escalation state diverged", c)
							}
						}
						if md.name == "escalating" && sys.runExact {
							escalated++
						}
						x, rx := make([]float64, sys.A.Nnz()), make([]float64, sys.A.Nnz())
						rowSum, colSum := make([]float64, m), make([]float64, n)
						worst := sys.Eval(lambda, mu, x, rowSum, colSum)
						rw, rrow, rcol := refEval(ref, rl, rm, rx)
						if math.Float64bits(worst) != math.Float64bits(rw) {
							t.Fatalf("Eval worst %v, reference %v", worst, rw)
						}
						bitsEqual(t, "x", x, rx)
						bitsEqual(t, "rowSum", rowSum, rrow)
						bitsEqual(t, "colSum", colSum, rcol)
					})
				}
			}
		}
	}
	if escalated == 0 {
		t.Fatal("no escalating case left relaxed mode; the exact sweeps went untested there")
	}
}
