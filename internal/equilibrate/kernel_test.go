package equilibrate

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sea/internal/sortx"
)

// batchSlot is one subproblem tracked through the kernel-vs-reference
// property test: the instance, its interval (when applicable), and one
// State plus output block per path.
type batchSlot struct {
	c      warmCase
	p      *Problem
	lo, hi float64
	stS    State // reference path, Reset before every solve
	stK    State // kernel path
	xS     []float64
	xK     []float64
	shape  keyShape
}

// keyShape is a breakpoint pattern a slot keeps through some of its
// perturbations, aimed at one behaviour of the span radix.
type keyShape uint8

const (
	shapeRandom  keyShape = iota
	shapeTies             // every breakpoint at one position: span 0
	shapeCluster          // −2 ± 1 ulp, straddling a binade: span 2, one pass
	shapeOutlier          // a −2 ± 1 ulp cluster and one far breakpoint: the top-bits repair runs over budget
	shapeWide             // spread over many binades, with ±0 and denormals: the top-bits repair holds
)

// shape rewrites p's coefficients into the breakpoint pattern sh (with
// a_j = 1 the breakpoint is exactly −c_j); shapeRandom leaves p alone.
func (sh keyShape) shape(rng *rand.Rand, p *Problem) {
	minus2 := []float64{2, math.Nextafter(2, 3), math.Nextafter(2, 0)}
	tiny := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3e-320, -2.5e-310}
	for j := range p.C {
		switch sh {
		case shapeRandom:
			return
		case shapeTies:
			p.A[j], p.C[j] = 1, 2.5
		case shapeCluster, shapeOutlier:
			p.A[j], p.C[j] = 1, minus2[rng.IntN(len(minus2))]
		case shapeWide:
			p.A[j], p.C[j] = 1, rng.NormFloat64()*math.Pow(10, float64(rng.IntN(9)-4))
			if j%20 == 0 {
				p.C[j] = tiny[(j/20)%len(tiny)]
			}
		}
	}
	if sh == shapeOutlier {
		p.C[len(p.C)/2] = -1e6
	}
}

// batchSlots builds the adversarial mix: empty subproblems, single-
// breakpoint rows, all-ties keys, sizes on every cold sort route, every
// bound pattern, and interval totals — all through one kernel.
func batchSlots(rng *rand.Rand) []*batchSlot {
	cases := []struct {
		c     warmCase
		shape keyShape
	}{
		{c: warmCase{name: "empty", n: 0, elastic: true}},
		{c: warmCase{name: "single", n: 1}},
		{c: warmCase{name: "ties-small", n: 12}, shape: shapeTies},
		{c: warmCase{name: "ties-large", n: 200}, shape: shapeTies},
		{c: warmCase{name: "cluster-mid", n: 100}, shape: shapeCluster},
		{c: warmCase{name: "cluster-outlier", n: 300}, shape: shapeOutlier},
		{c: warmCase{name: "wide-zeros-denormals", n: 400}, shape: shapeWide},
		{c: warmCase{name: "fixed-small", n: 7}},
		{c: warmCase{name: "fixed-large", n: 300}},
		{c: warmCase{name: "elastic", n: 120, elastic: true}},
		{c: warmCase{name: "bounded", n: 90, bounded: true}},
		{c: warmCase{name: "box", n: 150, bounded: true, lowered: true}},
		{c: warmCase{name: "interval", n: 110, bounded: true, interval: true}},
		{c: warmCase{name: "empty-fixed", n: 0}},
		{c: warmCase{name: "single-elastic", n: 1, elastic: true}},
	}
	slots := make([]*batchSlot, len(cases))
	for i, tc := range cases {
		s := &batchSlot{c: tc.c, shape: tc.shape, p: buildProblem(rng, tc.c)}
		if tc.shape != shapeRandom {
			// For ties all sort keys are equal, so the span is 0 and only
			// stability separates build orders.
			tc.shape.shape(rng, s.p)
			s.p.R = feasibleTarget(rng, s.p)
		}
		if tc.c.n == 0 && !tc.c.elastic {
			s.p.R = 0 // the only feasible empty fixed-total subproblem
		}
		s.xS = make([]float64, tc.c.n)
		s.xK = make([]float64, tc.c.n)
		slots[i] = s
	}
	return slots
}

// call is the slot's kernel call, with output block x and state st.
func (s *batchSlot) call(x []float64, st *State) step {
	if s.c.interval {
		return interval(s.p, s.lo, s.hi, x, st)
	}
	return fixed(s.p, x, st)
}

// perturb drifts a slot's instance the way SEA's outer iterations do —
// usually small dual drift, occasionally a violent shake — identically for
// both solve paths.
func (s *batchSlot) perturb(rng *rand.Rand) {
	scale := 0.05
	if rng.Float64() < 0.2 {
		scale = 20
	}
	for j := 0; j < s.c.n; j++ {
		s.p.C[j] += rng.NormFloat64() * scale
	}
	if s.shape != shapeRandom && rng.Float64() < 0.5 {
		// Keep the slot's key shape through some perturbations.
		s.shape.shape(rng, s.p)
	}
	if s.c.n > 0 && rng.Float64() < 0.3 {
		s.p.R = feasibleTarget(rng, s.p)
	}
	if s.c.interval {
		mid := feasibleTarget(rng, s.p)
		span := rng.Float64() * 10
		s.lo, s.hi = mid-span, mid+span
	}
}

// TestBatchBitIdenticalToSingle is the kernel's contract: over random
// sequences of perturbed adversarial subproblems — solved cold by plain
// insertion on one side, and through a warm-started State in one reused
// Kernel on the other — every result, primal block, op count, interior
// verdict and root segment is bit-identical. Every kernel solve that sorts
// counts exactly one fast or full sort.
func TestBatchBitIdenticalToSingle(t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 4))
	slots := batchSlots(rng)
	k := NewKernel(0)
	const steps = 30
	for step := 0; step < steps; step++ {
		for _, s := range slots {
			s.perturb(rng)
			s.stS.Reset()
			want, err := solveInsertion(s.call(s.xS, &s.stS))
			if err != nil {
				t.Fatalf("step %d slot %s: reference error %v", step, s.c.name, err)
			}
			got, err := s.call(s.xK, &s.stK)(k)
			if err != nil {
				t.Fatalf("step %d slot %s: kernel error %v", step, s.c.name, err)
			}
			sameResult(t, fmt.Sprintf("step %d slot %s", step, s.c.name), got, want, s.xK, s.xS)
			if s.stS.FullSorts != s.stK.FastSorts+s.stK.FullSorts {
				t.Fatalf("step %d slot %s: %d sorted solves, but the kernel counted %d fast + %d full",
					step, s.c.name, s.stS.FullSorts, s.stK.FastSorts, s.stK.FullSorts)
			}
			if s.stS.LastSeg != s.stK.LastSeg {
				t.Fatalf("step %d slot %s: LastSeg reference=%d kernel=%d", step, s.c.name, s.stS.LastSeg, s.stK.LastSeg)
			}
		}
	}
	for _, s := range slots {
		// The shaped slots flip between unrelated orderings by design, so
		// their replays legitimately keep failing.
		if s.c.n > 1 && s.shape == shapeRandom && s.stK.FastSorts == 0 {
			t.Errorf("slot %s: warm path never replayed (%d full sorts)", s.c.name, s.stK.FullSorts)
		}
	}
}

// TestBatchColdNoStates runs the same comparison with nil States (the cold
// path core uses before warm onset): every subproblem cold, every sort
// route through one kernel.
func TestBatchColdNoStates(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	slots := batchSlots(rng)
	k := NewKernel(0)
	for step := 0; step < 10; step++ {
		for _, s := range slots {
			s.perturb(rng)
			got, err := s.call(s.xK, nil)(k)
			if err != nil {
				t.Fatalf("step %d slot %s: kernel error %v", step, s.c.name, err)
			}
			want, err := solveInsertion(s.call(s.xS, nil))
			if err != nil {
				t.Fatalf("step %d slot %s: reference error %v", step, s.c.name, err)
			}
			sameResult(t, fmt.Sprintf("step %d slot %s", step, s.c.name), got, want, s.xK, s.xS)
		}
	}
}

// TestBatchAllTiesAcrossSegments puts every key of a subproblem at the same
// position: the radix key span is zero, so the canonical order comes purely
// from the stability of the sort over the build order. Three such
// subproblems run through one kernel, on the insertion and the span radix
// routes.
func TestBatchAllTiesAcrossSegments(t *testing.T) {
	for _, n := range []int{5, 40, 90} {
		tied := func() *Problem {
			p := &Problem{C: make([]float64, n), A: make([]float64, n), R: float64(n)}
			for j := 0; j < n; j++ {
				p.C[j] = 1.5
				p.A[j] = 1
			}
			clampAll(p) // every term clamps, so the subproblem sorts
			return p
		}
		x := make([]float64, n)
		want, err := solveInsertion(fixed(tied(), x, nil))
		if err != nil {
			t.Fatal(err)
		}
		k := NewKernel(0)
		for s := 0; s < 3; s++ {
			xK := make([]float64, n)
			got, err := k.Solve(tied(), xK, nil)
			if err != nil {
				t.Fatalf("n=%d subproblem %d: %v", n, s, err)
			}
			if got.Interior {
				t.Fatalf("n=%d subproblem %d: solved at its interior root, not sorted", n, s)
			}
			sameResult(t, fmt.Sprintf("n=%d subproblem %d", n, s), got, want, xK, x)
		}
	}
}

// TestBatchSortRoutes pins each radix route of a cold solve to the key
// shape it exists for, at a size that used to join other subproblems' sort
// (100) and at one that always sorted alone (300–400), and checks each
// against plain insertion: a −2 ± 1 ulp cluster sorts exactly in one pass,
// a wide spread by its top bits plus the insertion repair, and a cluster
// with one far outlier overruns the repair and falls back to the exact span
// radix. A cluster's fixed-total root lies past all its breakpoints, so
// those subproblems take an elastic target whose root lies left of every
// breakpoint (clampAll): every subproblem sorts.
func TestBatchSortRoutes(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		shape keyShape
		want  sortRoute
	}{
		{"cluster-own", 300, shapeCluster, routeSpan},
		{"cluster-mid", 100, shapeCluster, routeSpan},
		{"wide-own", 400, shapeWide, routeTop},
		{"wide-mid", 100, shapeWide, routeTop},
		{"outlier-own", 300, shapeOutlier, routeFallback},
		{"outlier-mid", 100, shapeOutlier, routeFallback},
	}
	rng := rand.New(rand.NewPCG(31, 37))
	k := NewKernel(0)
	for _, tc := range cases {
		p := buildProblem(rng, warmCase{n: tc.n})
		tc.shape.shape(rng, p)
		p.R = feasibleTarget(rng, p)
		if tc.shape == shapeCluster {
			clampAll(p)
		}
		// Ties inside a ulp cluster rarely change the sweep's bits, so
		// check the route and the slot's key order on the cold sort itself.
		k.events, k.keys, k.sorted = make([]event, tc.n), make([]sortx.Key, tc.n), make([]sortx.Key, tc.n)
		if err := buildUnbounded(k.events, k.keys, p.C, p.A); err != nil {
			t.Fatal(err)
		}
		keys := slices.Clone(k.keys)
		slices.SortStableFunc(keys, func(a, b sortx.Key) int { return cmp.Compare(a.Bits, b.Bits) })
		if route := k.sortCold(tc.n); route != tc.want {
			t.Errorf("%s: sorted by route %d, want %d", tc.name, route, tc.want)
		}
		for i, key := range k.sorted[:tc.n] {
			if key.Idx != keys[i].Idx {
				t.Fatalf("%s: sorted key %d has build index %d, want %d", tc.name, i, key.Idx, keys[i].Idx)
			}
		}
		xK := make([]float64, tc.n)
		got, err := k.Solve(p, xK, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Interior {
			t.Fatalf("%s: solved at its interior root, not sorted", tc.name)
		}
		x := make([]float64, tc.n)
		want, err := solveInsertion(fixed(p, x, nil))
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		sameResult(t, tc.name, got, want, xK, x)
	}
}

// clampAll makes p elastic (e = 1) with its root one unit left of its
// leftmost breakpoint, where every term sits at 0: no term is interior.
func clampAll(p *Problem) {
	left := math.Inf(1)
	for j := range p.C {
		left = min(left, -p.C[j]/p.A[j])
	}
	p.E, p.R = 1, left-1
}

// TestBatchAllPinned: a subproblem whose variables are all pinned (u = l)
// has no breakpoints. It solves at its lower bounds, alone and after a
// subproblem on every cold sort route in the same kernel, and a total it
// cannot reach is infeasible.
func TestBatchAllPinned(t *testing.T) {
	pinned := &Problem{C: []float64{1, 2, 3}, A: []float64{1, 1, 1}, U: []float64{0, 0.5, 0}, L: []float64{0, 0.5, 0}, R: 0.5}
	rng := rand.New(rand.NewPCG(41, 43))
	for _, n := range []int{0, 20, 100, 300} {
		k := NewKernel(0)
		if n > 0 {
			p := buildProblem(rng, warmCase{n: n})
			p.R = feasibleTarget(rng, p)
			if _, err := k.Solve(p, make([]float64, n), nil); err != nil {
				t.Fatal(err)
			}
		}
		x := []float64{9, 9, 9}
		res, err := k.Solve(pinned, x, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if x[0] != 0 || x[1] != 0.5 || x[2] != 0 || res.Total != 0.5 {
			t.Fatalf("n=%d: pinned x = %v, result %+v", n, x, res)
		}
	}
	bad := *pinned
	bad.R = 1
	if _, err := solve(&bad, make([]float64, 3)); err != ErrInfeasible {
		t.Fatalf("unreachable total: err = %v, want ErrInfeasible", err)
	}
}

// TestSortChargeTable: the tabled sort charge is the cost model's
// expression, so operation counts do not depend on the table.
func TestSortChargeTable(t *testing.T) {
	for m := 0; m <= len(sortCharges); m++ {
		if got, want := sortCharge(m), int64(float64(m)*math.Log2(float64(m)+1)); got != want {
			t.Fatalf("sortCharge(%d) = %d, want %d", m, got, want)
		}
	}
}

// TestBatchAddErrors: structural and feasibility failures are reported by
// the call that meets them, and the kernel stays usable after them.
func TestBatchAddErrors(t *testing.T) {
	k := NewKernel(0)
	x2 := make([]float64, 2)
	if _, err := k.Solve(&Problem{C: []float64{1, 2}, A: []float64{1}}, x2, nil); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := k.Solve(&Problem{C: []float64{1, 2}, A: []float64{1, 1}, E: -1}, x2, nil); err == nil {
		t.Fatal("negative elastic slope not rejected")
	}
	if _, err := k.Solve(&Problem{C: []float64{math.NaN(), 2}, A: []float64{1, 1}, R: 1}, x2, nil); err == nil {
		t.Fatal("NaN breakpoint not rejected")
	}
	if _, err := k.Solve(&Problem{C: []float64{1, 2}, A: []float64{1, 1}, U: []float64{1, 1}, R: 5}, x2, nil); err == nil {
		t.Fatal("infeasible fixed total not rejected")
	}
	if _, err := k.SolveInterval(&Problem{C: []float64{1, 2}, A: []float64{1, 1}}, 3, 1, x2, nil); err == nil {
		t.Fatal("empty interval not rejected")
	}
	// After the failed calls the kernel must still solve cleanly.
	p := &Problem{C: []float64{1, 2}, A: []float64{1, 1}, R: 2}
	got, err := k.Solve(p, x2, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	want, err := solve(p, x)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after failed calls", got, want, x2, x)
}

// TestBatchSteadyZeroAlloc: once warm, cycles of kernel calls on stable
// shapes allocate nothing — the property the core phases rely on for
// 0-alloc steady solves.
func TestBatchSteadyZeroAlloc(t *testing.T) {
	const n, subs = 64, 8
	k := NewKernel(n)
	probs := make([]*Problem, subs)
	xs := make([][]float64, subs)
	sts := make([]State, subs)
	rng := rand.New(rand.NewPCG(5, 5))
	for s := range probs {
		probs[s] = buildProblem(rng, warmCase{n: n})
		xs[s] = make([]float64, n)
	}
	run := func() {
		for s, p := range probs {
			if _, err := k.Solve(p, xs[s], &sts[s]); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // engage the warm states and any lazy growth
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("steady kernel cycle allocates %.1f objects/run, want 0", avg)
	}
}

// TestPresizeStatesSpans: each state gets exactly its span's capacity from
// the shared slab (an empty span none), a solve of exactly that size saves
// without reallocating, and — on uniform spans, the dense layout — a solve
// exceeding its span grows independently instead of spilling into the
// neighbor's slab region.
func TestPresizeStatesSpans(t *testing.T) {
	ptr := []int{3, 35, 35, 40}
	sts := make([]State, 3)
	PresizeStatesSpans(sts, ptr)
	for i := range sts {
		if want := ptr[i+1] - ptr[i]; cap(sts[i].perm) != want {
			t.Fatalf("state %d: perm cap %d, want %d", i, cap(sts[i].perm), want)
		}
	}
	rng := rand.New(rand.NewPCG(9, 9))
	p := buildProblem(rng, warmCase{n: 32})
	x := make([]float64, 32)
	slab := sts[0].perm[:1]
	if _, err := NewKernel(0).Solve(p, x, &sts[0]); err != nil {
		t.Fatal(err)
	}
	if sts[0].nev != 32 || &sts[0].perm[0] != &slab[0] {
		t.Fatalf("state 0: nev %d, or the save left the slab", sts[0].nev)
	}

	uniform := make([]State, 4)
	PresizeStatesSpans(uniform, []int{0, 16, 32, 48, 64})
	for i := range uniform {
		if cap(uniform[i].perm) != 16 {
			t.Fatalf("uniform state %d: perm cap %d, want 16", i, cap(uniform[i].perm))
		}
	}
	if _, err := NewKernel(0).Solve(p, x, &uniform[0]); err != nil {
		t.Fatal(err)
	}
	if uniform[0].nev != 32 {
		t.Fatalf("uniform state 0 nev = %d, want 32", uniform[0].nev)
	}
	if cap(uniform[1].perm) != 16 || uniform[1].nev != 0 {
		t.Fatal("neighbor state disturbed by out-of-slab growth")
	}
}

// TestBatchInteriorAllocatesNoEventBuffers: a kernel whose subproblems all
// solve at their interior root never allocates its event-sized buffers, and
// the first subproblem that sorts allocates the ones it uses at the hint's
// capacity.
func TestBatchInteriorAllocatesNoEventBuffers(t *testing.T) {
	const hint = 1 << 12
	rng := rand.New(rand.NewPCG(12, 34))
	k := NewKernel(hint)
	for _, bounded := range []bool{false, true} {
		p := interiorCase(rng, 40, gatherNone, bounded, bounded, false, false)
		res, err := k.Solve(p, make([]float64, 40), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Interior {
			t.Fatalf("bounded=%v: not solved at its interior root", bounded)
		}
	}
	if k.events != nil || k.keys != nil || k.sorted != nil || k.alt != nil {
		t.Fatalf("all-interior kernel allocated event buffers: events %d, keys %d, sorted %d, alt %d",
			cap(k.events), cap(k.keys), cap(k.sorted), cap(k.alt))
	}

	if _, err := k.Solve(clampedNeighbour(rng, 40), make([]float64, 40), nil); err != nil {
		t.Fatal(err)
	}
	if cap(k.events) != hint || cap(k.keys) != hint || cap(k.sorted) != hint {
		t.Fatalf("sorting subproblem allocated events %d, keys %d, sorted %d; want %d each",
			cap(k.events), cap(k.keys), cap(k.sorted), hint)
	}
}
