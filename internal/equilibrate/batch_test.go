package equilibrate

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sea/internal/sortx"
)

// batchSlot is one subproblem tracked through the batched-vs-reference
// property test: the instance, its interval (when applicable), and one
// State plus output block per path.
type batchSlot struct {
	c      warmCase
	p      *Problem
	lo, hi float64
	stS    State // reference path, Reset before every solve
	stB    State // batched path
	xS     []float64
	xB     []float64
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
// bound pattern, and interval totals — all in one batch.
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
			// For ties all sort keys are equal, within the segment and
			// across tied segments, so the span is 0 and only stability
			// separates build orders.
			tc.shape.shape(rng, s.p)
			s.p.R = feasibleTarget(rng, s.p)
		}
		if tc.c.n == 0 && !tc.c.elastic {
			s.p.R = 0 // the only feasible empty fixed-total subproblem
		}
		s.xS = make([]float64, tc.c.n)
		s.xB = make([]float64, tc.c.n)
		slots[i] = s
	}
	return slots
}

// add is the slot's add step, with output block x and state st.
func (s *batchSlot) add(x []float64, st *State) func(*Batch) error {
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

// TestBatchBitIdenticalToSingle is the batched kernel's contract: over
// random sequences of perturbed adversarial subproblems — solved one at a
// time, cold, by plain insertion on one side, and through a warm-started
// Batch on the other — every result, primal block, op count, and root
// segment is bit-identical, for batch group sizes of 1 (degenerate), a few,
// and all-at-once (> number of subproblems never splits). Every batched
// solve that sorts counts exactly one fast or full sort.
func TestBatchBitIdenticalToSingle(t *testing.T) {
	for _, group := range []int{1, 4, 1 << 20} {
		t.Run(groupName(group), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(97, uint64(group)))
			slots := batchSlots(rng)
			b := NewBatch(0)
			const steps = 30
			for step := 0; step < steps; step++ {
				for _, s := range slots {
					s.perturb(rng)
				}
				// Reference path.
				type single struct {
					res Result
					err error
				}
				want := make([]single, len(slots))
				for i, s := range slots {
					s.stS.Reset()
					want[i].res, want[i].err = solveInsertion(s.add(s.xS, &s.stS))
					if want[i].err != nil {
						t.Fatalf("step %d slot %s: reference error %v", step, s.c.name, want[i].err)
					}
				}
				// Batched path, in groups.
				for lo := 0; lo < len(slots); lo += group {
					hi := lo + group
					if hi > len(slots) {
						hi = len(slots)
					}
					b.Reset()
					for _, s := range slots[lo:hi] {
						if err := s.add(s.xB, &s.stB)(b); err != nil {
							t.Fatalf("step %d slot %s: Add error %v", step, s.c.name, err)
						}
					}
					if bad, err := b.Solve(); err != nil {
						t.Fatalf("step %d: batch Solve failed at %d: %v", step, lo+bad, err)
					}
					for k, s := range slots[lo:hi] {
						got, w := b.Result(k), want[lo+k]
						if got.Lambda != w.res.Lambda || got.Total != w.res.Total || got.Ops != w.res.Ops {
							t.Fatalf("step %d slot %s: batch %+v, reference %+v (must be bit-identical)",
								step, s.c.name, got, w.res)
						}
					}
				}
				for _, s := range slots {
					for j := range s.xS {
						if s.xS[j] != s.xB[j] {
							t.Fatalf("step %d slot %s: x[%d] reference=%v batch=%v", step, s.c.name, j, s.xS[j], s.xB[j])
						}
					}
					if s.stS.FullSorts != s.stB.FastSorts+s.stB.FullSorts {
						t.Fatalf("step %d slot %s: %d sorted solves, but batch counted %d fast + %d full",
							step, s.c.name, s.stS.FullSorts, s.stB.FastSorts, s.stB.FullSorts)
					}
					if s.stS.LastSeg != s.stB.LastSeg {
						t.Fatalf("step %d slot %s: LastSeg reference=%d batch=%d", step, s.c.name, s.stS.LastSeg, s.stB.LastSeg)
					}
				}
			}
			for _, s := range slots {
				// The shaped slots flip between unrelated orderings by
				// design, so their replays legitimately keep failing.
				if s.c.n > 1 && s.shape == shapeRandom && s.stB.FastSorts == 0 {
					t.Errorf("slot %s: batched warm path never replayed (%d full sorts)", s.c.name, s.stB.FullSorts)
				}
			}
		})
	}
}

func groupName(g int) string {
	switch g {
	case 1:
		return "group-1"
	case 1 << 20:
		return "group-all"
	default:
		return "group-few"
	}
}

// TestBatchColdNoStates runs the same comparison with nil States (the cold
// path core uses before warm onset): all segments cold, every sort route in
// one batch.
func TestBatchColdNoStates(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	slots := batchSlots(rng)
	b := NewBatch(0)
	for step := 0; step < 10; step++ {
		for _, s := range slots {
			s.perturb(rng)
		}
		b.Reset()
		for _, s := range slots {
			if err := s.add(s.xB, nil)(b); err != nil {
				t.Fatalf("step %d slot %s: Add error %v", step, s.c.name, err)
			}
		}
		if bad, err := b.Solve(); err != nil {
			t.Fatalf("step %d: Solve failed at %d: %v", step, bad, err)
		}
		for i, s := range slots {
			want, err := solveInsertion(s.add(s.xS, nil))
			if err != nil {
				t.Fatalf("step %d slot %s: reference error %v", step, s.c.name, err)
			}
			if got := b.Result(i); got != want {
				t.Fatalf("step %d slot %s: batch %+v, reference %+v", step, s.c.name, got, want)
			}
			for j := range s.xS {
				if s.xS[j] != s.xB[j] {
					t.Fatalf("step %d slot %s: x[%d] differs", step, s.c.name, j)
				}
			}
		}
	}
}

// TestBatchAllTiesAcrossSegments puts every key of every segment at the same
// position: the radix key span is zero, so the canonical order
// of each slot comes purely from the stability of the segment-distribution
// pass over the build order.
func TestBatchAllTiesAcrossSegments(t *testing.T) {
	for _, n := range []int{5, 40, 90} { // insertion and fused routes
		b := NewBatch(0)
		xB := make([][]float64, 3)
		for s := 0; s < 3; s++ {
			p := &Problem{C: make([]float64, n), A: make([]float64, n), R: float64(n)}
			for j := 0; j < n; j++ {
				p.C[j] = 1.5
				p.A[j] = 1
			}
			xB[s] = make([]float64, n)
			if err := b.Add(p, xB[s], nil); err != nil {
				t.Fatal(err)
			}
		}
		if bad, err := b.Solve(); err != nil {
			t.Fatalf("n=%d: Solve failed at %d: %v", n, bad, err)
		}
		p := &Problem{C: make([]float64, n), A: make([]float64, n), R: float64(n)}
		for j := 0; j < n; j++ {
			p.C[j] = 1.5
			p.A[j] = 1
		}
		x := make([]float64, n)
		want, err := solveInsertion(fixed(p, x, nil))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			if got := b.Result(s); got != want {
				t.Fatalf("n=%d seg %d: batch %+v, reference %+v", n, s, got, want)
			}
			for j := range x {
				if xB[s][j] != x[j] {
					t.Fatalf("n=%d seg %d: x[%d] differs", n, s, j)
				}
			}
		}
	}
}

// TestBatchSortRoutes pins each radix route of a cold batch to the key
// shape it exists for — a segment sorted by its own radix (m ≥ segRadixMin)
// or several fused (batchInsertionMax < m < segRadixMin) — and checks every
// segment against plain insertion, one subproblem at a time: a −2 ± 1 ulp
// cluster sorts exactly in one pass, a wide spread by its top bits plus the
// insertion repair, and a cluster with one far outlier overruns the repair
// and falls back to the exact span radix.
func TestBatchSortRoutes(t *testing.T) {
	cases := []struct {
		name      string
		n, copies int
		shape     keyShape
		want      sortRoute
	}{
		{"cluster-own", 300, 1, shapeCluster, routeSpan},
		{"cluster-fused", 100, 3, shapeCluster, routeSpan},
		{"wide-own", 400, 1, shapeWide, routeTop},
		{"wide-fused", 100, 3, shapeWide, routeTop},
		{"outlier-own", 300, 1, shapeOutlier, routeFallback},
		{"outlier-fused", 100, 2, shapeOutlier, routeFallback},
	}
	rng := rand.New(rand.NewPCG(31, 37))
	for _, tc := range cases {
		b := NewBatch(0)
		ps := make([]*Problem, tc.copies)
		xs := make([][]float64, tc.copies)
		for i := range ps {
			ps[i] = buildProblem(rng, warmCase{n: tc.n})
			tc.shape.shape(rng, ps[i])
			ps[i].R = feasibleTarget(rng, ps[i])
			xs[i] = make([]float64, tc.n)
			if err := b.Add(ps[i], xs[i], nil); err != nil {
				t.Fatalf("%s: Add: %v", tc.name, err)
			}
		}
		if bad, err := b.Solve(); err != nil {
			t.Fatalf("%s: Solve failed at %d: %v", tc.name, bad, err)
		}
		for i, p := range ps {
			seg := &b.segs[i]
			if seg.route != tc.want {
				t.Errorf("%s seg %d: sorted by route %d, want %d", tc.name, i, seg.route, tc.want)
			}
			// Ties inside a ulp cluster rarely change the sweep's bits, so
			// check the slot's key order itself.
			keys := make([]sortx.Key, tc.n)
			if err := p.buildUnbounded(make([]event, tc.n), keys, 0); err != nil {
				t.Fatal(err)
			}
			slices.SortStableFunc(keys, func(a, b sortx.Key) int { return cmp.Compare(a.Bits, b.Bits) })
			for k, key := range b.sorted[seg.off : seg.off+seg.nev] {
				if key.Idx-seg.off != keys[k].Idx {
					t.Fatalf("%s seg %d: sorted key %d has build index %d, want %d", tc.name, i, k, key.Idx-seg.off, keys[k].Idx)
				}
			}
			x := make([]float64, tc.n)
			want, err := solveInsertion(fixed(p, x, nil))
			if err != nil {
				t.Fatalf("%s: reference: %v", tc.name, err)
			}
			if got := b.Result(i); got != want {
				t.Fatalf("%s seg %d: batch %+v, reference %+v", tc.name, i, got, want)
			}
			for j := range x {
				if xs[i][j] != x[j] {
					t.Fatalf("%s seg %d: x[%d] differs", tc.name, i, j)
				}
			}
		}
	}
}

// TestBatchAllPinned: a subproblem whose variables are all pinned (u = l)
// has no breakpoints. It solves at its lower bounds, alone and beside
// segments on every cold sort route, and a total it cannot reach is
// infeasible.
func TestBatchAllPinned(t *testing.T) {
	pinned := &Problem{C: []float64{1, 2, 3}, A: []float64{1, 1, 1}, U: []float64{0, 0.5, 0}, L: []float64{0, 0.5, 0}, R: 0.5}
	rng := rand.New(rand.NewPCG(41, 43))
	for _, n := range []int{0, 20, 100, 300} {
		b := NewBatch(0)
		x := []float64{9, 9, 9}
		if err := b.Add(pinned, x, nil); err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			p := buildProblem(rng, warmCase{n: n})
			p.R = feasibleTarget(rng, p)
			if err := b.Add(p, make([]float64, n), nil); err != nil {
				t.Fatal(err)
			}
		}
		if bad, err := b.Solve(); err != nil {
			t.Fatalf("n=%d: Solve failed at %d: %v", n, bad, err)
		}
		if x[0] != 0 || x[1] != 0.5 || x[2] != 0 || b.Result(0).Total != 0.5 {
			t.Fatalf("n=%d: pinned x = %v, result %+v", n, x, b.Result(0))
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

// TestBatchAddErrors: structural and feasibility failures surface at Add,
// and the batch stays usable after a Reset.
func TestBatchAddErrors(t *testing.T) {
	b := NewBatch(0)
	x2 := make([]float64, 2)
	if err := b.Add(&Problem{C: []float64{1, 2}, A: []float64{1}}, x2, nil); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if err := b.Add(&Problem{C: []float64{1, 2}, A: []float64{1, 1}, E: -1}, x2, nil); err == nil {
		t.Fatal("negative elastic slope not rejected")
	}
	if err := b.Add(&Problem{C: []float64{math.NaN(), 2}, A: []float64{1, 1}, R: 1}, x2, nil); err == nil {
		t.Fatal("NaN breakpoint not rejected")
	}
	if err := b.Add(&Problem{C: []float64{1, 2}, A: []float64{1, 1}, U: []float64{1, 1}, R: 5}, x2, nil); err == nil {
		t.Fatal("infeasible fixed total not rejected")
	}
	if err := b.AddInterval(&Problem{C: []float64{1, 2}, A: []float64{1, 1}}, 3, 1, x2, nil); err == nil {
		t.Fatal("empty interval not rejected")
	}
	// After the failed adds the batch must still solve cleanly.
	b.Reset()
	if err := b.Add(&Problem{C: []float64{1, 2}, A: []float64{1, 1}, R: 2}, x2, nil); err != nil {
		t.Fatal(err)
	}
	if bad, err := b.Solve(); err != nil {
		t.Fatalf("Solve after Reset failed at %d: %v", bad, err)
	}
	want, err := solve(&Problem{C: []float64{1, 2}, A: []float64{1, 1}, R: 2}, make([]float64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Result(0); got != want {
		t.Fatalf("post-Reset result %+v, want %+v", got, want)
	}
}

// TestBatchSteadyZeroAlloc: once warm, Reset/Add/Solve cycles of stable
// shapes allocate nothing — the property the core phases rely on for
// 0-alloc steady solves.
func TestBatchSteadyZeroAlloc(t *testing.T) {
	const n, segs = 64, 8
	b := NewBatch(segs * n)
	probs := make([]*Problem, segs)
	xs := make([][]float64, segs)
	sts := make([]State, segs)
	rng := rand.New(rand.NewPCG(5, 5))
	for s := range probs {
		probs[s] = buildProblem(rng, warmCase{n: n})
		xs[s] = make([]float64, n)
	}
	run := func() {
		b.Reset()
		for s, p := range probs {
			if err := b.Add(p, xs[s], &sts[s]); err != nil {
				t.Fatal(err)
			}
		}
		if bad, err := b.Solve(); err != nil {
			t.Fatalf("Solve failed at %d: %v", bad, err)
		}
	}
	run() // engage the warm states and any lazy growth
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("steady batch cycle allocates %.1f objects/run, want 0", avg)
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
	if _, err := solveOne(NewBatch(0), fixed(p, x, &sts[0])); err != nil {
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
	if _, err := solveOne(NewBatch(0), fixed(p, x, &uniform[0])); err != nil {
		t.Fatal(err)
	}
	if uniform[0].nev != 32 {
		t.Fatalf("uniform state 0 nev = %d, want 32", uniform[0].nev)
	}
	if cap(uniform[1].perm) != 16 || uniform[1].nev != 0 {
		t.Fatal("neighbor state disturbed by out-of-slab growth")
	}
}
