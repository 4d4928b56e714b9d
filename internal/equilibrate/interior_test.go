package equilibrate

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sea/internal/sortx"
)

// callFunc is a subproblem's kernel call with output block x and State st.
type callFunc func(x []float64, st *State) step

// clampedNeighbour is an unbounded subproblem whose term 0 clamps, so it
// always sorts: the company an interior subproblem keeps in a kernel.
func clampedNeighbour(rng *rand.Rand, n int) *Problem {
	return withClamp(buildProblem(rng, warmCase{n: n}))
}

// solveEverywhere solves the n-term subproblem of call five ways and
// requires the same λ, total, op count, block bits and interior verdict
// from each: in a fresh kernel; by plain insertion (the reference); through
// a State that already holds a permutation of its shape, which an interior
// solve must leave as it was; and between clamped subproblems in one
// kernel, whose scratch they leave behind, on the default routes and with
// every cold sort on a radix route. It returns the reference result and
// block.
func solveEverywhere(t *testing.T, name string, n int, call callFunc) (Result, []float64) {
	t.Helper()
	x := make([]float64, n)
	ref, err := solveInsertion(call(x, nil))
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}

	check := func(how string, got Result, xGot []float64) {
		t.Helper()
		sameResult(t, name+": "+how, got, ref, xGot, x)
	}

	// In a fresh kernel.
	k := NewKernel(0)
	xs := make([]float64, n)
	got, err := call(xs, nil)(k)
	if err != nil {
		t.Fatalf("%s: alone: %v", name, err)
	}
	check("alone", got, xs)

	// Through a State holding a permutation of n events.
	rng := rand.New(rand.NewPCG(uint64(n), 3))
	st := &State{}
	if n >= 3 {
		if _, err := k.Solve(clampedNeighbour(rng, n), make([]float64, n), st); err != nil {
			t.Fatal(err)
		}
	}
	before := *st
	perm := slices.Clone(st.perm)
	if got, err = call(xs, st)(k); err != nil {
		t.Fatalf("%s: warm: %v", name, err)
	}
	check("warm", got, xs)
	if ref.Interior && (st.nev != before.nev || st.cool != before.cool || st.LastSeg != before.LastSeg ||
		st.FastSorts != before.FastSorts || st.FullSorts != before.FullSorts || !slices.Equal(st.perm, perm)) {
		t.Fatalf("%s: an interior solve touched its State: %+v, before %+v", name, *st, before)
	}

	// Between clamped neighbours, on the default routes and on the radix
	// routes.
	for _, radix := range []bool{false, true} {
		func() {
			defer func(ins int) { batchInsertionMax = ins }(batchInsertionMax)
			if radix {
				batchInsertionMax = 0
			}
			for i := 0; i < 3; i++ {
				if i != 1 {
					if _, err := k.Solve(clampedNeighbour(rng, 40), make([]float64, 40), nil); err != nil {
						t.Fatal(err)
					}
					continue
				}
				got, err := call(xs, nil)(k)
				if err != nil {
					t.Fatalf("%s: between neighbours: %v", name, err)
				}
				check(fmt.Sprintf("between neighbours radix=%v", radix), got, xs)
			}
		}()
	}
	return ref, x
}

// sweepOnly solves p by the sort and sweep alone, with no interior
// attempt, and returns its λ and the op count the kernel charges for it.
func sweepOnly(t *testing.T, p *Problem) (float64, int64) {
	t.Helper()
	q := materialize(p)
	var ev []event
	var keys []sortx.Key
	var err error
	if q.L == nil && q.U == nil {
		ev, keys = make([]event, len(q.C)), make([]sortx.Key, len(q.C))
		err = buildUnbounded(ev, keys, q.C, q.A)
	} else {
		ev, keys, err = q.appendBounded(nil, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	sortx.InsertionKeys(keys)
	m := len(keys)
	lambda, extra, err := sweep(ev, keys, q.E, q.R, q.sumLower(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return lambda, int64(7*m) + sortCharge(m) + extra + int64(2*len(q.C))
}

// checkInterior requires an interior result to be a root of φ to rounding,
// within bisection's tolerance of SolveBisection's, with x the clamp form
// at λ bit for bit and the op count the sort and sweep would charge.
func checkInterior(t *testing.T, name string, p *Problem, res Result, x []float64) {
	t.Helper()
	q := materialize(p)
	var scale float64
	for j := range q.C {
		scale += math.Abs(q.C[j]) + q.A[j]*math.Abs(res.Lambda)
	}
	scale += math.Abs(q.R) + q.E*math.Abs(res.Lambda)
	if got := q.Phi(res.Lambda); math.Abs(got-q.R) > 1e-13*scale {
		t.Fatalf("%s: φ(λ) = %v, want %v", name, got, q.R)
	}
	bis, err := q.SolveBisection(make([]float64, len(q.C)), 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bis.Lambda-res.Lambda) > 1e-9*(1+math.Abs(res.Lambda)) {
		t.Fatalf("%s: λ = %v, bisection %v", name, res.Lambda, bis.Lambda)
	}
	var total float64
	for j := range x {
		want := q.clampVal(j, q.C[j]+q.A[j]*res.Lambda)
		if math.Float64bits(x[j]) != math.Float64bits(want) {
			t.Fatalf("%s: x[%d] = %v, clamp form %v", name, j, x[j], want)
		}
		total += want
	}
	if math.Float64bits(total) != math.Float64bits(res.Total) {
		t.Fatalf("%s: total %v, Σx = %v", name, res.Total, total)
	}
	sw, ops := sweepOnly(t, p)
	if ops != res.Ops {
		t.Fatalf("%s: %d ops charged, the sort and sweep charge %d", name, res.Ops, ops)
	}
	if math.Abs(sw-res.Lambda) > 1e-12*(1+math.Abs(sw)) {
		t.Fatalf("%s: λ = %v, the sweep's %v", name, res.Lambda, sw)
	}
}

// interiorCase is a random subproblem whose root is interior: c_j = x⁰_j > 0
// and a_j = x⁰_j/2, so φ's interior line is x⁰·(1 + λ/2) and every target
// in (0, ∞) is met with every cell strictly inside a generous box.
func interiorCase(rng *rand.Rand, n int, g gatherOf, bounded, lowered, pinned, elastic bool) *Problem {
	p := &Problem{C: make([]float64, n), A: make([]float64, n)}
	for j := range p.C {
		p.C[j] = 0.1 + rng.Float64()*1000
		p.A[j] = p.C[j] / 2
	}
	growth := 0.5 + 2*rng.Float64()
	if bounded {
		p.U = make([]float64, n)
		for j := range p.U {
			p.U[j] = p.C[j]*(growth+1) + 1
			if j%3 == 0 {
				p.U[j] = math.Inf(1)
			}
		}
	}
	if lowered {
		p.L = make([]float64, n)
		for j := range p.L {
			p.L[j] = p.C[j] * growth / 4
		}
	}
	if pinned {
		for j := 1; j < n; j += 5 {
			p.U[j] = p.lower(j)
		}
	}
	if elastic {
		p.E = 0.1 + rng.Float64()
	}
	// The target the grown block meets: Σ over free cells of growth·x⁰,
	// plus Σl over pinned ones and the elastic term at λ = 2(growth−1).
	lambda := 2 * (growth - 1)
	p.R = p.E * lambda
	for j := range p.C {
		if pinned && p.pinned(j, p.lower(j)) {
			p.R += p.lower(j)
			continue
		}
		p.R += p.C[j] + p.A[j]*lambda
	}
	// Re-express c through a gather that evaluates to the same values.
	if g != gatherNone {
		other := make([]float64, n)
		for j := range other {
			other[j] = rng.NormFloat64()
			p.C[j] -= p.A[j] * other[j]
		}
		p.Other = other
		if g == gatherIndexed {
			p.Idx = make([]int32, n)
			perm := rng.Perm(n)
			shuffled := make([]float64, n)
			for j, k := range perm {
				p.Idx[j] = int32(k)
				shuffled[k] = other[j]
			}
			p.Other = shuffled
		}
	}
	return p
}

// TestInteriorRootRandom: subproblems whose roots lie past every breakpoint
// — unbounded, boxed with finite and infinite uppers, with lower bounds and
// pinned cells, fixed and elastic, with no, dense and indexed gathers — are
// solved at their interior root, agree with φ, SolveBisection and the sort
// and sweep (λ to rounding, op counts exactly), and give the same bits
// alone, warm, between other subproblems and on any sort route.
func TestInteriorRootRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 67))
	for trial := 0; trial < 60; trial++ {
		n := []int{1, 2, 3, 5, 7, 20, 150}[trial%7]
		g := gatherOf(trial % 3)
		bounded := trial%4 != 0
		lowered := bounded && trial%8 == 1
		pinned := bounded && n >= 2 && trial%5 == 2
		elastic := trial%6 == 3
		p := interiorCase(rng, n, g, bounded, lowered, pinned, elastic)
		name := fmt.Sprintf("trial %d (n=%d gather=%d bounded=%v lowered=%v pinned=%v elastic=%v)",
			trial, n, g, bounded, lowered, pinned, elastic)
		res, x := solveEverywhere(t, name, n, func(x []float64, st *State) step { return fixed(p, x, st) })
		if !res.Interior {
			t.Fatalf("%s: not solved at its interior root", name)
		}
		checkInterior(t, name, p, res, x)
	}
}

// TestInteriorRootAtLastBreakpoint: a root exactly on the last activation
// breakpoint is interior (the last cell sits at 0, as the sweep leaves it);
// one ulp of target above, the root passes it and stays interior; one ulp
// below, that cell clamps and the subproblem sorts.
func TestInteriorRootAtLastBreakpoint(t *testing.T) {
	// Breakpoints −1, −2, −3 and 1; φ(1) = 2 + 3 + 4 + 0 = 9.
	base := Problem{C: []float64{1, 2, 3, -1}, A: []float64{1, 1, 1, 1}}
	for _, tc := range []struct {
		name     string
		r        float64
		interior bool
	}{
		{"at", 9, true},
		{"ulp-above", math.Nextafter(9, 10), true},
		{"ulp-below", math.Nextafter(9, 8), false},
	} {
		p := base
		p.R = tc.r
		res, x := solveEverywhere(t, tc.name, 4, func(x []float64, st *State) step { return fixed(&p, x, st) })
		if res.Interior != tc.interior {
			t.Fatalf("%s: interior %v, want %v", tc.name, res.Interior, tc.interior)
		}
		if tc.name == "at" && (res.Lambda != 1 || x[3] != 0) {
			t.Fatalf("at: λ = %v, x = %v; want λ = 1 and x₃ = 0", res.Lambda, x)
		}
		if res.Interior {
			checkInterior(t, tc.name, &p, res, x)
		} else {
			checkSolution(t, &p, x, res)
		}
	}
}

// TestInteriorRootSignedZeros: ±0 coefficients and a root at λ = 0 give the
// block the primal recovery writes, signs of zero included.
func TestInteriorRootSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		p    Problem
	}{
		{"root-zero", Problem{C: []float64{negZero, 0, 5}, A: []float64{1, 2, 1}, R: 5}},
		{"root-positive", Problem{C: []float64{negZero, 0, 5}, A: []float64{1, 2, 1}, R: 9}},
		{"gathered-zero", Problem{C: []float64{negZero, 0, 5}, A: []float64{1, 2, 1}, Other: []float64{negZero, 0, 0}, R: 5}},
		{"elastic-zero", Problem{C: []float64{negZero, 0, 5}, A: []float64{1, 2, 1}, E: 0.5, R: 5}},
	} {
		res, x := solveEverywhere(t, tc.name, 3, func(x []float64, st *State) step { return fixed(&tc.p, x, st) })
		if !res.Interior {
			t.Fatalf("%s: not interior", tc.name)
		}
		checkInterior(t, tc.name, &tc.p, res, x)
	}
}

// TestInteriorRootPinnedMatchesOmitted: pinned cells add nothing to the
// interior line, and the lanes follow the index among the free cells, so a
// problem with pinned cells solves to the bits of the problem without them
// — the kernel side of dense ≡ CSR.
func TestInteriorRootPinnedMatchesOmitted(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 73))
	for _, n := range []int{2, 9, 40} {
		for _, g := range []gatherOf{gatherNone, gatherDense, gatherIndexed} {
			full := interiorCase(rng, n, g, true, false, true, false)
			var keep []int
			for j := range full.C {
				if !full.pinned(j, full.lower(j)) {
					keep = append(keep, j)
				}
			}
			q := materialize(full)
			omit := &Problem{R: full.R - full.sumLower(), U: []float64{}}
			for _, j := range keep {
				omit.C = append(omit.C, q.C[j])
				omit.A = append(omit.A, q.A[j])
				omit.U = append(omit.U, q.U[j])
			}
			name := fmt.Sprintf("n=%d gather=%d", n, g)
			xf, xo := make([]float64, n), make([]float64, len(keep))
			rf, err := solve(full, xf)
			if err != nil {
				t.Fatal(err)
			}
			ro, err := solve(omit, xo)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(rf.Lambda) != math.Float64bits(ro.Lambda) {
				t.Fatalf("%s: λ %v with pinned cells, %v without", name, rf.Lambda, ro.Lambda)
			}
			for k, j := range keep {
				if math.Float64bits(xf[j]) != math.Float64bits(xo[k]) {
					t.Fatalf("%s: x[%d] = %v with pinned cells, %v without", name, j, xf[j], xo[k])
				}
			}
			checkInterior(t, name, full, rf, xf)
		}
	}
}

// TestInteriorRootOnSaturation: with a finite upper bound, a root exactly on
// its saturation breakpoint is interior (x_j = u_j); one ulp of target
// above, the cell saturates and the subproblem sorts; one ulp below, it is
// interior.
func TestInteriorRootOnSaturation(t *testing.T) {
	// x = c + λ with c = (1, 2, 3); u₀ = 2 saturates at λ = 1, where φ = 9.
	base := Problem{C: []float64{1, 2, 3}, A: []float64{1, 1, 1}, U: []float64{2, math.Inf(1), 50}}
	for _, tc := range []struct {
		name     string
		r        float64
		interior bool
	}{
		{"at", 9, true},
		{"ulp-above", math.Nextafter(9, 10), false},
		{"ulp-below", math.Nextafter(9, 8), true},
	} {
		p := base
		p.R = tc.r
		res, x := solveEverywhere(t, tc.name, 3, func(x []float64, st *State) step { return fixed(&p, x, st) })
		if res.Interior != tc.interior {
			t.Fatalf("%s: interior %v, want %v", tc.name, res.Interior, tc.interior)
		}
		if tc.name == "at" && (res.Lambda != 1 || x[0] != 2) {
			t.Fatalf("at: λ = %v, x = %v; want λ = 1 and x₀ = u₀", res.Lambda, x)
		}
		if res.Interior {
			checkInterior(t, tc.name, &p, res, x)
		} else {
			checkSolution(t, &p, x, res)
		}
	}
}

// TestInteriorRootIntervalSides: the binding side of an interval total is
// solved at its interior root on either side; a slack interval never gets
// that far.
func TestInteriorRootIntervalSides(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 83))
	for _, g := range []gatherOf{gatherNone, gatherDense, gatherIndexed} {
		p := interiorCase(rng, 30, g, true, false, false, false)
		free := materialize(p)
		var total float64
		for j := range free.C {
			total += free.C[j]
		}
		for _, side := range []struct {
			name   string
			lo, hi float64
		}{
			{"upper binds", 0.2 * total, 0.6 * total},
			{"lower binds", 1.5 * total, 2 * total},
		} {
			name := fmt.Sprintf("gather=%d %s", g, side.name)
			res, x := solveEverywhere(t, name, 30, func(x []float64, st *State) step {
				return interval(p, side.lo, side.hi, x, st)
			})
			if !res.Interior {
				t.Fatalf("%s: not interior", name)
			}
			q := *p
			q.R = side.lo
			if side.name == "upper binds" {
				q.R = side.hi
			}
			checkInterior(t, name, &q, res, x)
		}
	}
}

// TestInteriorRootHugeSpread: the paper's data spread — x⁰ over five
// decades, γ = 1/x⁰, totals doubled or halved — solved at the interior root
// to rounding, against φ, bisection and the sweep.
func TestInteriorRootHugeSpread(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	for _, n := range []int{7, 500} {
		for _, growth := range []float64{0.5, 2} {
			p := &Problem{C: make([]float64, n), A: make([]float64, n)}
			var sum float64
			for j := range p.C {
				x0 := 0.1 + rng.Float64()*9999.9
				p.C[j], p.A[j] = x0, x0/2
				sum += x0
			}
			p.R = growth * sum
			name := fmt.Sprintf("n=%d growth=%v", n, growth)
			res, x := solveEverywhere(t, name, n, func(x []float64, st *State) step { return fixed(p, x, st) })
			if !res.Interior {
				t.Fatalf("%s: not interior", name)
			}
			checkInterior(t, name, p, res, x)
		}
	}
}

// TestInteriorRootGivesUpCleanly: a subproblem the interior attempt cannot
// vouch for reaches the sort and sweep with its block and coefficients
// intact — a clamping cell late in the block, after earlier cells were
// written; a non-positive slope; a NaN coefficient — and is solved or
// rejected exactly as plain insertion does.
func TestInteriorRootGivesUpCleanly(t *testing.T) {
	rng := rand.New(rand.NewPCG(89, 97))
	for _, g := range []gatherOf{gatherNone, gatherDense, gatherIndexed} {
		late := interiorCase(rng, 40, g, false, false, false, false)
		late.C[39] -= 1e9 // the last cell clamps: 39 cells written first
		res, x := solveEverywhere(t, fmt.Sprintf("late clamp gather=%d", g), 40,
			func(x []float64, st *State) step { return fixed(late, x, st) })
		if res.Interior {
			t.Fatalf("gather=%d: a clamped subproblem solved at its interior root", g)
		}
		checkSolution(t, materialize(late), x, res)
	}
	bad := &Problem{C: []float64{1, 2, 3}, A: []float64{1, 0, 1}, R: 9}
	if _, err := solve(bad, make([]float64, 3)); err == nil || err.Error() != "equilibrate: a[1] = 0, want > 0" {
		t.Fatalf("a zero slope: err = %v", err)
	}
	nan := &Problem{C: []float64{1, math.NaN(), 3}, A: []float64{1, 1, 1}, R: 9}
	if _, err := solve(nan, make([]float64, 3)); err == nil {
		t.Fatal("a NaN coefficient was accepted")
	}
}

// TestUnboundedRootMatchesSolve: a caller that rebuilds the interior
// attempt of an unbounded subproblem from the exported pieces — the four
// lanes combined by LaneSum, UnboundedRoot, InteriorTerm, InteriorTotal and
// InteriorOps — takes exactly the subproblems Solve solves at its interior
// root, with Solve's λ, total and op charge bit for bit, and leaves Solve
// every other one: clamping cells, fixed totals just inside and just past
// the feasibility tolerance (on equal cells of 1e8, which all round to 0
// either way), and negative elastic slopes.
func TestUnboundedRootMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	var interior, other int
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.IntN(24)
		c, a := make([]float64, n), make([]float64, n)
		var sum float64
		for j := range c {
			switch trial % 3 {
			case 0: // equal cells of 1e8, all at 0 for a total near 0
				c[j], a[j] = 1e8, 1
			case 1:
				c[j], a[j] = 10*rng.Float64(), 0.1+rng.Float64()
			default: // a few cells clamp
				c[j], a[j] = 10*rng.Float64(), 0.1+rng.Float64()
				if rng.IntN(6) == 0 {
					c[j] = -c[j]
				}
			}
			sum += c[j]
		}
		e := []float64{0, 0, 0.5, -0.25}[rng.IntN(4)]
		r := []float64{1.2 * sum, 0.5 * sum, 0, -5e-10, -2e-9, -3}[rng.IntN(6)]

		x := make([]float64, n)
		res, err := solve(&Problem{C: c, A: a, R: r, E: e}, x)
		var l [8]float64
		for j := range c {
			l[j&3] += c[j]
			l[4+j&3] += a[j]
		}
		lambda, ok := UnboundedRoot(e, r, LaneSum(l[0], l[1], l[2], l[3]), LaneSum(l[4], l[5], l[6], l[7]))
		var total float64
		seg, xs := 0, make([]float64, n)
		for j := range c {
			v := c[j] + a[j]*lambda
			xs[j] = v
			ok = ok && InteriorTerm(v, a[j])
			if v > 0 {
				seg++
			}
			total += v
		}
		ok = ok && InteriorTotal(total)
		name := fmt.Sprintf("trial %d (n=%d e=%g r=%g)", trial, n, e, r)
		if !ok {
			other++
			if err == nil && res.Interior {
				t.Fatalf("%s: Solve took the interior root λ=%g, the pieces did not", name, res.Lambda)
			}
			continue
		}
		interior++
		want := Result{Lambda: lambda, Total: total, Ops: InteriorOps(n, seg, n), Interior: true}
		if err != nil {
			t.Fatalf("%s: the pieces took λ=%g, Solve failed: %v", name, lambda, err)
		}
		sameResult(t, name, res, want, x, xs)
	}
	if interior < 100 || other < 100 {
		t.Fatalf("cases not mixed: %d interior, %d not", interior, other)
	}
}
