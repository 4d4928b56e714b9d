package scale

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference below is the per-cell formulation of both responses: every
// cell visit goes through refCell and the Matrix accessors, and the column
// pass keeps explicit per-column active flags and target and elastic-term
// buffers. The row/column kernels must reproduce it bit for bit — same
// clamps, same left-to-right summation — so λ, μ, every Result field and
// Eval's output agree exactly. Its residual folds keep a NaN violation (a
// fixed-total equation whose dual diverged to ±Inf reads 0·Inf = NaN), so a
// residual over such an equation is NaN.

// refVisits counts the reference's cell visits (BenchmarkISPRun divides by
// it).
var refVisits int

// refCell is the per-cell response at dual sum d and the slope it adds to
// its row/column derivative (zero when the cell clamps).
func refCell(s *System, k int, d float64) (x, slope float64) {
	refVisits++
	lo := 0.0
	if s.Lo != nil {
		lo = s.Lo[k]
	}
	if s.Response == Exponential {
		g := s.A.Val[k]
		e := d / g
		if e > maxExpArg {
			e = maxExpArg
		}
		t := s.X0[k] * math.Exp(e)
		if t <= lo {
			return lo, 0
		}
		if s.Up != nil && t >= s.Up[k] {
			return s.Up[k], 0
		}
		if math.IsInf(t, 1) {
			return t, 0
		}
		return t, t / g
	}
	x = s.X0[k] + s.A.Val[k]*d
	if x <= lo {
		return lo, 0
	}
	if s.Up != nil && x >= s.Up[k] {
		return s.Up[k], 0
	}
	return x, s.A.Val[k]
}

func refRowSum(s *System, i int, z float64, mu []float64) (sum, slope float64) {
	lo, hi := s.A.Row(i)
	for k := lo; k < hi; k++ {
		x, sl := refCell(s, k, z+mu[s.A.Col(i, k)])
		sum += x
		slope += sl
	}
	return sum, slope
}

func refSolveRow(s *System, i int, lambda, mu []float64, innerTol float64, inner int) (first float64) {
	z := lambda[i]
	var target, diag float64
	blo, bhi := math.Inf(-1), math.Inf(1)
	if s.RowLo != nil {
		sumIn, _ := refRowSum(s, i, z, mu)
		first = intervalViolation(sumIn, s.RowLo[i], s.RowHi[i], z)
		sum0 := sumIn
		if z != 0 {
			sum0, _ = refRowSum(s, i, 0, mu)
		}
		switch {
		case sum0 < s.RowLo[i]:
			target, blo = s.RowLo[i], 0
		case sum0 > s.RowHi[i]:
			target, bhi = s.RowHi[i], 0
		default:
			lambda[i] = 0
			return first
		}
	} else {
		target, diag = s.rowAbs(i, mu)
	}
	step := 1.0
	for it := 0; it < inner; it++ {
		sum, slope := refRowSum(s, i, z, mu)
		g := sum + diag*z - target
		if it == 0 && s.RowLo == nil {
			first = math.Abs(g)
		}
		if math.Abs(g) <= innerTol {
			break
		}
		next, ok := newtonStep(z, g, slope+diag, &blo, &bhi, &step)
		if !ok {
			break
		}
		z = next
	}
	lambda[i] = z
	return first
}

func refSolveColumns(s *System, lambda, mu []float64, innerTol float64, inner int) (first float64) {
	m, n := s.A.M, s.A.N
	colSum, colSlope := make([]float64, n), make([]float64, n)
	blo, bhi := make([]float64, n), make([]float64, n)
	target, diag := make([]float64, n), make([]float64, n)
	active := make([]bool, n)
	for j := 0; j < n; j++ {
		blo[j], bhi[j] = math.Inf(-1), math.Inf(1)
		active[j] = true
	}
	if s.ColLo != nil {
		sum0 := make([]float64, n)
		for i := 0; i < m; i++ {
			lo, hi := s.A.Row(i)
			for k := lo; k < hi; k++ {
				j := s.A.Col(i, k)
				x, _ := refCell(s, k, lambda[i]+mu[j])
				colSum[j] += x
				if mu[j] != 0 {
					x, _ = refCell(s, k, lambda[i])
				}
				sum0[j] += x
			}
		}
		for j := 0; j < n; j++ {
			if v := intervalViolation(colSum[j], s.ColLo[j], s.ColHi[j], mu[j]); v > first || v != v {
				first = v
			}
			switch {
			case sum0[j] < s.ColLo[j]:
				target[j], blo[j] = s.ColLo[j], 0
			case sum0[j] > s.ColHi[j]:
				target[j], bhi[j] = s.ColHi[j], 0
			default:
				mu[j] = 0
				active[j] = false
			}
		}
	} else {
		for j := 0; j < n; j++ {
			target[j], diag[j] = s.colAbs(j, lambda)
		}
	}
	step := 1.0
	for pass := 0; pass < inner; pass++ {
		for j := 0; j < n; j++ {
			colSum[j] = 0
			colSlope[j] = 0
		}
		for i := 0; i < m; i++ {
			lo, hi := s.A.Row(i)
			for k := lo; k < hi; k++ {
				j := s.A.Col(i, k)
				x, sl := refCell(s, k, lambda[i]+mu[j])
				colSum[j] += x
				colSlope[j] += sl
			}
		}
		var worst float64
		moved := false
		for j := 0; j < n; j++ {
			if !active[j] {
				continue
			}
			g := colSum[j] + diag[j]*mu[j] - target[j]
			if ag := math.Abs(g); ag > worst || ag != ag {
				worst = ag
			}
			if math.Abs(g) <= innerTol {
				continue
			}
			if next, ok := newtonStep(mu[j], g, colSlope[j]+diag[j], &blo[j], &bhi[j], &step); ok {
				mu[j] = next
				moved = true
			}
		}
		if pass == 0 && s.ColLo == nil {
			first = worst
		}
		if worst <= innerTol || !moved {
			break
		}
	}
	return first
}

func refRun(s *System, lambda, mu []float64, sweeps int, tol float64) Result {
	innerTol := 0.0
	if tol > 0 {
		innerTol = tol / 4
	}
	if !s.runInit {
		s.runInit = true
		s.runExact = s.Response == Exponential
		s.lastRes = math.Inf(1)
		s.winBest = math.Inf(1)
		s.prevWin = math.Inf(1)
	}
	var res Result
	for t := 1; t <= sweeps; t++ {
		res.Iterations = t
		inner := 1
		if s.runExact || (tol > 0 && s.lastRes <= 8*tol) {
			inner = maxInner
		}
		var worst float64
		for i := 0; i < s.A.M; i++ {
			if r := refSolveRow(s, i, lambda, mu, innerTol, inner); r > worst || r != r {
				worst = r
			}
		}
		if r := refSolveColumns(s, lambda, mu, innerTol, inner); r > worst || r != r {
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
			xv, _ := refCell(s, k, lambda[i]+mu[j])
			x[k] = xv
			sum += xv
			colSum[j] += xv
		}
		rowSum[i] = sum
	}
	for i := 0; i < m; i++ {
		var r float64
		if s.RowLo != nil {
			r = intervalViolation(rowSum[i], s.RowLo[i], s.RowHi[i], lambda[i])
		} else {
			target, diag := s.rowAbs(i, mu)
			r = math.Abs(rowSum[i] + diag*lambda[i] - target)
		}
		if r > worst || r != r {
			worst = r
		}
	}
	for j := 0; j < n; j++ {
		var r float64
		if s.ColLo != nil {
			r = intervalViolation(colSum[j], s.ColLo[j], s.ColHi[j], mu[j])
		} else {
			target, diag := s.colAbs(j, lambda)
			r = math.Abs(colSum[j] + diag*mu[j] - target)
		}
		if r > worst || r != r {
			worst = r
		}
	}
	return worst, rowSum, colSum
}

// ispCase builds a system of m rows under the given response over the named
// storage, bounds and totals: m×15, or m×m for coupled totals. Additive priors straddle zero (exponential ones are
// their magnitudes, as the KL domain needs) and bounds sit inside the prior
// range, so every clamp branch engages; interval totals are centred at
// random multiples of the targets, so some equations bind each bound and
// some hold with a zero multiplier.
func ispCase(resp Response, m int, storage, bounds, totals string, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	n := 15
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
	s := &System{Response: resp, A: a, X0: make([]float64, nv)}
	for k := 0; k < nv; k++ {
		a.Val[k] = 0.3 + rng.Float64()
		s.X0[k] = -2 + 5*rng.Float64()
		if resp == Exponential {
			s.X0[k] = math.Abs(s.X0[k])
		}
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
	case "interval":
		s.RowLo, s.RowHi = make([]float64, m), make([]float64, m)
		for i, r := range s.RowTarget {
			c := r * (0.5 + 2*rng.Float64())
			s.RowLo[i], s.RowHi[i] = 0.9*c, 1.1*c
		}
		s.ColLo, s.ColHi = make([]float64, n), make([]float64, n)
		for j, c := range s.ColTarget {
			c *= 0.5 + 2*rng.Float64()
			s.ColLo[j], s.ColHi[j] = 0.7*c, 1.3*c
		}
		s.RowTarget, s.ColTarget = nil, nil
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

// sameResult compares two Results field by field, the residual by its bits,
// so two NaN residuals match.
func sameResult(a, b Result) bool {
	ra, rb := math.Float64bits(a.Residual), math.Float64bits(b.Residual)
	a.Residual, b.Residual = 0, 0
	return a == b && ra == rb
}

// TestISPKernelsMatchReference: the per-row kernels reproduce the per-cell
// reference bit for bit across responses, storages, bound families, total
// kinds and sweep modes (relaxed only, escalating on its own, and exact from
// the start — the exponential response is exact in all three), over chunked
// Run calls so the persistent escalation state is compared too. The m13
// cases have an odd row count, so the paired dense kernels leave their
// last row to the single-row ones.
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
	for _, m := range []int{12, 13} {
		for _, resp := range []Response{Additive, Exponential} {
			for _, storage := range []string{"dense", "csr-band", "csr-full"} {
				for _, bounds := range []string{"classical", "lower", "box"} {
					for _, totals := range []string{"fixed", "elastic", "coupled", "interval"} {
						for _, md := range modes {
							seed++
							name := fmt.Sprintf("%s/%s/%s/%s", storage, bounds, totals, md.name)
							if resp == Exponential {
								name = "exponential/" + name
							}
							if m != 12 {
								name = fmt.Sprintf("m%d/%s", m, name)
							}
							t.Run(name, func(t *testing.T) {
								sys := ispCase(resp, m, storage, bounds, totals, seed)
								ref := ispCase(resp, m, storage, bounds, totals, seed)
								if md.exact {
									sys.runInit, sys.runExact = true, true
									sys.lastRes, sys.winBest, sys.prevWin = math.Inf(1), math.Inf(1), math.Inf(1)
									ref.runInit, ref.runExact = true, true
									ref.lastRes, ref.winBest, ref.prevWin = math.Inf(1), math.Inf(1), math.Inf(1)
								}
								n := sys.A.N
								lambda, mu := make([]float64, m), make([]float64, n)
								rl, rm := make([]float64, m), make([]float64, n)
								for c, sweeps := range md.chunks {
									got := sys.Run(lambda, mu, sweeps, md.tol, nil, nil, nil)
									want := refRun(ref, rl, rm, sweeps, md.tol)
									if !sameResult(got, want) {
										t.Fatalf("chunk %d: Result %+v, reference %+v", c, got, want)
									}
									bitsEqual(t, "lambda", lambda, rl)
									bitsEqual(t, "mu", mu, rm)
									if sys.runExact != ref.runExact || sys.winCount != ref.winCount {
										t.Fatalf("chunk %d: escalation state diverged", c)
									}
								}
								if md.name == "escalating" && resp == Additive && sys.runExact {
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
		}
	}
	if escalated == 0 {
		t.Fatal("no escalating case left relaxed mode; the exact sweeps went untested there")
	}
}

// interiorSlopeRef is the classical loops' slope mask before interiorMask:
// a when x is interior (x > 0, or NaN), +0 when it clamps.
func interiorSlopeRef(x, a float64) float64 {
	var mask uint64
	if !(x <= 0) {
		mask = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(a) & mask)
}

// TestInteriorMask: one mask per cell gives max(x, 0) and the interior
// slope bit for bit on the values where a clamp can go wrong — both zeros,
// both signs of denormals and infinities — and keeps a NaN cell's own bits,
// as clampBox and refCell do. Go's max clears a NaN's sign bit, and the
// hardware's default NaN (from Inf − Inf or 0·Inf) has it set, so there the
// mask follows the reference instead; a sum it reaches is NaN either way,
// and every violation passes through math.Abs.
func TestInteriorMask(t *testing.T) {
	maxDenormal := math.Float64frombits(1<<52 - 1)
	inf := math.Inf(1)
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, maxDenormal, -maxDenormal,
		1, -1, inf, -inf, math.NaN(), inf - inf,
	}
	for _, x := range xs {
		in := interiorMask(x)
		want := max(x, 0)
		if math.IsNaN(x) {
			want = x
		}
		if got := masked(x, in); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("masked(%v) = %#x, want %#x", x, math.Float64bits(got), math.Float64bits(want))
		}
		for _, a := range []float64{0.75, math.SmallestNonzeroFloat64, math.MaxFloat64} {
			if got, want := masked(a, in), interiorSlopeRef(x, a); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("slope at x = %v, a = %v: %v, reference %v", x, a, got, want)
			}
		}
	}
}
