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
		if s.sor.omega != 1 {
			next = z + s.sor.omega*(next-z)
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
				if s.sor.omega != 1 {
					next = mu[j] + s.sor.omega*(next-mu[j])
				}
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

// refCheckpoint is refRun's over-relaxation state outside System: the
// checkpointed duals and every plain window ratio since the last rollback.
type refCheckpoint struct {
	lambda, mu, ratios []float64
}

var refCheckpoints = map[*System]*refCheckpoint{}

func refRun(s *System, lambda, mu []float64, sweeps int, tol float64) Result {
	innerTol := 0.0
	if tol > 0 {
		innerTol = tol / 4
	}
	if !s.runInit {
		s.runInit = true
		s.runExact = s.Response == Exponential
		s.sor.winBest = math.Inf(1)
		s.sor.prevWin = math.Inf(1)
		s.sor.omega = 1
	}
	// The checkpoint lives in the reference's own buffers, the System's
	// slab in Run.
	ck := refCheckpoints[s]
	if ck == nil {
		ck = new(refCheckpoint)
		refCheckpoints[s] = ck
	}
	// rollback restores the checkpoint, drops ω to 1 and restarts the
	// windows against the checkpoint's best.
	rollback := func() {
		copy(lambda, ck.lambda)
		copy(mu, ck.mu)
		s.sor.omega = 1
		s.sor.rollbacks++
		s.sor.winBest = math.Inf(1)
		s.sor.winCount = 0
		s.sor.prevWin = s.sor.ckBest
		ck.ratios = ck.ratios[:0]
	}
	var res Result
	for t := 1; t <= sweeps; t++ {
		res.Iterations = t
		inner := 1
		if s.runExact {
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
		if worst != worst && s.sor.omega > 1 {
			rollback()
			worst = math.Inf(1)
		}
		res.Residual = worst
		if worst == 0 && !res.Exact {
			res.Exact = true
			res.ExactIteration = t
		}
		if tol > 0 && worst <= tol {
			res.Converged = true
			return res
		}
		if worst != worst {
			return res
		}
		// The stall windows run in every mode: a relaxed stall escalates
		// and restarts the comparison, an exact one is reported, and an
		// over-relaxed one rolls back.
		if worst < s.sor.winBest {
			s.sor.winBest = worst
		}
		if s.sor.winCount++; s.sor.winCount < StallWindow {
			continue
		}
		best, prev := s.sor.winBest, s.sor.prevWin
		s.sor.prevWin = best
		s.sor.winBest = math.Inf(1)
		s.sor.winCount = 0
		stalled := best >= 0.98*prev
		if stalled {
			if s.sor.omega > 1 {
				rollback()
			} else if s.runExact {
				res.Stalled = true
			} else {
				s.runExact = true
				s.sor.prevWin = math.Inf(1)
			}
			continue
		}
		if s.runExact {
			continue
		}
		if s.sor.omega == 1 && s.sor.rollbacks < 3 && !math.IsInf(prev, 1) {
			q := best / prev
			ck.ratios = append(ck.ratios, q)
			if k := len(ck.ratios); k >= 3 {
				r := ck.ratios[k-3:]
				lo := math.Min(math.Min(r[0], r[1]), r[2])
				hi := math.Max(math.Max(r[0], r[1]), r[2])
				if hi-lo <= 0.02 && q < 0.98 {
					damp := 1.0
					for k := 0; k < int(s.sor.rollbacks); k++ {
						damp /= 2
					}
					rho := math.Pow(q, 1.0/StallWindow)
					s.sor.omega = 1 + damp*(math.Min(1.9, 2/(1+math.Sqrt(1-rho)))-1)
				}
			}
		}
		if s.sor.omega > 1 {
			ck.lambda = append(ck.lambda[:0], lambda...)
			ck.mu = append(ck.mu[:0], mu...)
			s.sor.ckBest = best
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
// kinds and sweep modes (relaxed only, relaxed down to a loose tolerance,
// escalating on its own, exact from the start — the exponential response is
// exact in all of them — and on to exact-mode stalls at a tolerance out of
// reach), over chunked Run calls so the persistent escalation state is
// compared too. The m13 cases have an odd
// row count, so the paired dense kernels leave their last row to the
// single-row ones.
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
		{name: "loose", chunks: []int{7, 200}, tol: 1e-2},
		{name: "exact", chunks: []int{3, 30}, tol: 1e-12, exact: true},
		{name: "stall", chunks: []int{6, 5, 400}, tol: 1e-300},
	}
	escalated, stalled, engaged, rolledBack, seed := 0, 0, 0, 0, int64(0)
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
									sys.start()
									ref.start()
									sys.runExact, ref.runExact = true, true
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
									if sys.runExact != ref.runExact || sys.sor.winCount != ref.sor.winCount ||
										math.Float64bits(sys.sor.prevWin) != math.Float64bits(ref.sor.prevWin) ||
										math.Float64bits(sys.sor.omega) != math.Float64bits(ref.sor.omega) ||
										sys.sor.rollbacks != ref.sor.rollbacks {
										t.Fatalf("chunk %d: escalation state diverged", c)
									}
									if sys.sor.omega > 1 || sys.sor.rollbacks > 0 {
										engaged++
									}
									if sys.sor.rollbacks > 0 {
										rolledBack++
									}
									if got.Stalled && resp == Additive {
										stalled++
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
	if stalled == 0 {
		t.Fatal("no additive case reported an exact-mode stall; that report went untested")
	}
	if engaged == 0 || rolledBack == 0 {
		t.Fatalf("over-relaxation engaged in %d cases and rolled back in %d; want both", engaged, rolledBack)
	}
}

// TestISPOverRelaxationPaths follows the over-relaxation rule down each of
// its paths against the reference, over chunked Run calls of one stall
// window each: it engages and converges in under half the plain sweeps; it
// rolls back, retries with half the damping and rolls back again; it never
// engages, and then every iterate is plain Gauss–Seidel's bit for bit (the
// reference with its rollbacks spent, which keeps ω = 1).
func TestISPOverRelaxationPaths(t *testing.T) {
	for _, c := range []struct {
		name                    string
		m                       int
		storage, bounds, totals string
		seed                    int64
	}{
		{"engages", 12, "dense", "classical", "elastic", 1},
		{"retries", 30, "csr-band", "box", "coupled", 3},
		{"never", 12, "csr-band", "box", "elastic", 13},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := ispCase(Additive, c.m, c.storage, c.bounds, c.totals, c.seed)
			ref := ispCase(Additive, c.m, c.storage, c.bounds, c.totals, c.seed)
			plain := ispCase(Additive, c.m, c.storage, c.bounds, c.totals, c.seed)
			plain.start()
			plain.sor.rollbacks = maxRollbacks
			m, n := sys.A.M, sys.A.N
			lambda, mu := make([]float64, m), make([]float64, n)
			rl, rm := make([]float64, m), make([]float64, n)
			pl, pm := make([]float64, m), make([]float64, n)
			sweeps, plainSweeps, engaged, retried := 0, 0, false, false
			var res, pres Result
			for chunk := 0; chunk < 200 && !(res.Converged && pres.Converged); chunk++ {
				if !res.Converged {
					res = sys.Run(lambda, mu, StallWindow, 1e-10, nil, nil, nil)
					want := refRun(ref, rl, rm, StallWindow, 1e-10)
					if !sameResult(res, want) {
						t.Fatalf("chunk %d: Result %+v, reference %+v", chunk, res, want)
					}
					bitsEqual(t, "lambda", lambda, rl)
					bitsEqual(t, "mu", mu, rm)
					if math.Float64bits(sys.sor.omega) != math.Float64bits(ref.sor.omega) || sys.sor.rollbacks != ref.sor.rollbacks {
						t.Fatalf("chunk %d: ω %v after %d rollbacks, reference %v after %d", chunk, sys.sor.omega, sys.sor.rollbacks, ref.sor.omega, ref.sor.rollbacks)
					}
					sweeps += res.Iterations
					engaged = engaged || sys.sor.omega > 1
					retried = retried || (sys.sor.omega > 1 && sys.sor.rollbacks > 0)
				}
				if !pres.Converged {
					pres = refRun(plain, pl, pm, StallWindow, 1e-10)
					plainSweeps += pres.Iterations
				}
			}
			if !res.Converged || !pres.Converged {
				t.Fatalf("converged %v after %d sweeps, plain %v after %d", res.Converged, sweeps, pres.Converged, plainSweeps)
			}
			t.Logf("%d sweeps (ω %.3f, %d rollbacks), plain Gauss–Seidel %d", sweeps, sys.sor.omega, sys.sor.rollbacks, plainSweeps)
			switch c.name {
			case "engages":
				if sys.sor.rollbacks != 0 || 2*sweeps >= plainSweeps {
					t.Errorf("%d sweeps after %d rollbacks, want under half of plain's %d and none", sweeps, sys.sor.rollbacks, plainSweeps)
				}
			case "retries":
				if !retried || sys.sor.rollbacks < 2 || sweeps >= plainSweeps {
					t.Errorf("re-engaged %v after %d rollbacks in %d sweeps, want ≥ 2 rollbacks and fewer than plain's %d", retried, sys.sor.rollbacks, sweeps, plainSweeps)
				}
			case "never":
				if engaged {
					t.Fatal("ω left 1")
				}
				if sweeps != plainSweeps {
					t.Fatalf("%d sweeps, plain Gauss–Seidel %d", sweeps, plainSweeps)
				}
				bitsEqual(t, "lambda against plain Gauss–Seidel", lambda, pl)
				bitsEqual(t, "mu against plain Gauss–Seidel", mu, pm)
			}
			if c.name != "never" && !engaged {
				t.Fatal("ω never left 1")
			}
		})
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

// TestISPOverRelaxedNaNRollsBack: a feasible system never reports
// divergence because of an over-relaxed sweep. Once ω has engaged, it is
// forced to +Inf, so the next sweep's duals overflow and its residual is
// NaN; that sweep restores the checkpoint and reports +Inf rather than NaN,
// and the plain sweeps that follow converge, exactly as the reference does
// from the same state.
func TestISPOverRelaxedNaNRollsBack(t *testing.T) {
	sys := ispCase(Additive, 12, "dense", "classical", "elastic", 1)
	ref := ispCase(Additive, 12, "dense", "classical", "elastic", 1)
	m, n := sys.A.M, sys.A.N
	lambda, mu := make([]float64, m), make([]float64, n)
	rl, rm := make([]float64, m), make([]float64, n)
	for sys.sor.omega <= 1 {
		if res := sys.Run(lambda, mu, StallWindow, 1e-10, nil, nil, nil); res.Converged || res.Stalled {
			t.Fatalf("Run = %+v before ω engaged", res)
		}
		refRun(ref, rl, rm, StallWindow, 1e-10)
	}
	sys.sor.omega, ref.sor.omega = math.Inf(1), math.Inf(1)
	var residuals []float64
	res := sys.Run(lambda, mu, 500, 1e-10, nil, nil, func(_ int, r float64) { residuals = append(residuals, r) })
	want := refRun(ref, rl, rm, 500, 1e-10)
	if !sameResult(res, want) {
		t.Fatalf("Result %+v, reference %+v", res, want)
	}
	bitsEqual(t, "lambda", lambda, rl)
	bitsEqual(t, "mu", mu, rm)
	if !res.Converged || sys.sor.rollbacks != 1 || !math.IsInf(residuals[0], 1) {
		t.Fatalf("Run = %+v after %d rollbacks, first residual %v; want convergence after one rollback that read +Inf", res, sys.sor.rollbacks, residuals[0])
	}
	for k, r := range residuals {
		if math.IsNaN(r) {
			t.Fatalf("sweep %d reported a NaN residual", k+1)
		}
	}
}
