package equilibrate

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// gatherSeg is one subproblem of the gather tests: the gathered form Add
// sees, the target interval when it has one, and its State and output
// block across solves.
type gatherSeg struct {
	p        *Problem
	interval bool
	lo, hi   float64
	st       State
	x        []float64
}

// gatherOf is the gather form of a segment: none (C holds c), dense
// (Other[j]) or indexed (Other[Idx[j]]).
type gatherOf uint8

const (
	gatherNone gatherOf = iota
	gatherDense
	gatherIndexed
)

// materialize returns p with its coefficients evaluated and stored in C —
// c_j = C_j + A_j·Other[Idx_j], the gather's definition — and no gather:
// the form the kernel took before it fused the gather into its build.
func materialize(p *Problem) *Problem {
	q := *p
	q.C = make([]float64, len(p.C))
	for j := range q.C {
		q.C[j] = p.C[j]
		switch {
		case p.Other == nil:
		case p.Idx == nil:
			q.C[j] = p.C[j] + p.A[j]*p.Other[j]
		default:
			q.C[j] = p.C[j] + p.A[j]*p.Other[p.Idx[j]]
		}
	}
	q.Other, q.Idx = nil, nil
	return &q
}

// gatherSegment builds a random n-term subproblem with gather form g over
// the shared multipliers other: unbounded, bounded (some cells pinned at
// u = l = 0) or boxed, fixed, elastic or interval, and in a key shape
// when sh is not shapeRandom (its multipliers zeroed, so the shape's
// coefficients reach the kernel exactly).
func gatherSegment(rng *rand.Rand, n int, g gatherOf, other []float64, sh keyShape) *gatherSeg {
	bounds := rng.IntN(3)
	p := buildProblem(rng, warmCase{n: n, bounded: bounds > 0, lowered: bounds == 2, elastic: rng.IntN(3) == 0})
	if bounds == 1 {
		for j := range p.U {
			if rng.IntN(8) == 0 {
				p.U[j] = 0 // pinned: no events
			}
		}
	}
	if sh != shapeRandom {
		sh.shape(rng, p)
	}
	switch g {
	case gatherDense:
		p.Other = other[:n]
	case gatherIndexed:
		p.Other = other
		p.Idx = make([]int32, n)
		for j := range p.Idx {
			p.Idx[j] = int32(rng.IntN(len(other)))
		}
	}
	if sh != shapeRandom {
		for j := range p.C {
			switch g {
			case gatherDense:
				other[j] = 0
			case gatherIndexed:
				other[p.Idx[j]] = 0
			}
		}
	}
	s := &gatherSeg{p: p, x: make([]float64, n)}
	s.retarget(rng)
	s.interval = p.U != nil && p.E == 0 && rng.IntN(3) == 0
	if s.interval {
		mid := p.R
		span := rng.Float64() * 10
		s.lo, s.hi = mid-span, mid+span
	}
	return s
}

// retarget draws a feasible target. Feasibility depends only on the
// bounds, so it survives any drift of the multipliers.
func (s *gatherSeg) retarget(rng *rand.Rand) {
	s.p.R = feasibleTarget(rng, s.p)
}

// add is the segment's add step over the gathered problem p, with output
// block x and state st.
func (s *gatherSeg) add(p *Problem, x []float64, st *State) func(*Batch) error {
	if s.interval {
		return interval(p, s.lo, s.hi, x, st)
	}
	return fixed(p, x, st)
}

// sameResult requires a batch result and block to match a reference bit
// for bit.
func sameResult(t *testing.T, what string, got, want Result, xGot, xWant []float64) {
	t.Helper()
	if math.Float64bits(got.Lambda) != math.Float64bits(want.Lambda) ||
		math.Float64bits(got.Total) != math.Float64bits(want.Total) || got.Ops != want.Ops {
		t.Fatalf("%s: batch %+v, reference %+v (must be bit-identical)", what, got, want)
	}
	for j := range xWant {
		if math.Float64bits(xGot[j]) != math.Float64bits(xWant[j]) {
			t.Fatalf("%s: x[%d] = %v, reference %v", what, j, xGot[j], xWant[j])
		}
	}
}

// FuzzBatchWarm drives the gather-fused build through two solves of one
// set of States — through one batch, or (odd seeds) a fresh batch per
// solve, whose slot buffer grows under the warm slots Add fills: segments of 1–200 events (insertion, fused and own-radix
// routes, and the top-bits repair's fallback on the outlier shape), bounded
// and unbounded, with no, dense and indexed gathers, and a drift of the
// shared multipliers between the solves that ranges from none to large
// enough to bust the warm repair's budget. Every result — λ, x, Total and
// Ops — must be bit-identical to a fresh cold batch that holds the
// subproblem alone, with its coefficients materialized, sorted by plain
// insertion.
func FuzzBatchWarm(f *testing.F) {
	f.Add(uint64(1), []byte{19, 60, 150, 0}, 0.0)
	f.Add(uint64(2), []byte{5, 23, 24, 25, 127, 128, 199}, 1e-6)
	f.Add(uint64(3), []byte{90, 90, 90, 250}, 50.0)
	f.Add(uint64(4), []byte{199, 40}, 1e-3)
	f.Add(uint64(5), []byte{10, 20, 70, 180}, 100.0)
	f.Fuzz(func(t *testing.T, seed uint64, sizes []byte, drift float64) {
		if len(sizes) == 0 || len(sizes) > 8 || math.IsNaN(drift) || math.Abs(drift) > 1e6 {
			return
		}
		rng := rand.New(rand.NewPCG(seed, uint64(len(sizes))))
		other := make([]float64, 256)
		for i := range other {
			other[i] = rng.NormFloat64() * 5
		}
		segs := make([]*gatherSeg, len(sizes))
		for i, sz := range sizes {
			n := 1 + int(sz)%200
			sh := shapeRandom
			if rng.IntN(4) == 0 {
				sh = keyShape(1 + rng.IntN(4))
			}
			segs[i] = gatherSegment(rng, n, gatherOf(rng.IntN(3)), other, sh)
		}
		b := NewBatch(0)
		for solve := 0; solve < 2; solve++ {
			if solve == 1 {
				for i := range other {
					other[i] += drift * rng.NormFloat64()
				}
				for _, s := range segs {
					if rng.IntN(4) == 0 {
						s.retarget(rng)
					}
				}
			}
			b.Reset()
			if seed&1 == 1 {
				// A fresh batch grows its canonical array while Add fills
				// the warm slots.
				b = NewBatch(0)
			}
			for i, s := range segs {
				if err := s.add(s.p, s.x, &s.st)(b); err != nil {
					t.Fatalf("solve %d seg %d: Add: %v", solve, i, err)
				}
			}
			if bad, err := b.Solve(); err != nil {
				t.Fatalf("solve %d: Solve failed at %d: %v", solve, bad, err)
			}
			for i, s := range segs {
				x := make([]float64, len(s.x))
				want, err := solveInsertion(s.add(materialize(s.p), x, nil))
				if err != nil {
					t.Fatalf("solve %d seg %d: reference: %v", solve, i, err)
				}
				sameResult(t, fmt.Sprintf("solve %d seg %d (n=%d)", solve, i, len(s.x)), b.Result(i), want, s.x, x)
			}
		}
	})
}

// TestBatchErrorAttribution: a rejected term is named by its build index —
// the first bad term in build order — whether Add builds in build order
// (cold) or walks the State's permutation (warm), with the message text of
// the kernel's validation; and a batch that rejected an Add solves its
// other segments, warm and cold, bit-identically.
func TestBatchErrorAttribution(t *testing.T) {
	const n, first, second = 30, 11, 23
	for _, g := range []gatherOf{gatherNone, gatherDense, gatherIndexed} {
		for _, bounded := range []bool{false, true} {
			rng := rand.New(rand.NewPCG(71, uint64(g)))
			other := make([]float64, n)
			for i := range other {
				other[i] = rng.NormFloat64()
			}
			mk := func() *gatherSeg {
				s := gatherSegment(rng, n, g, other, shapeRandom)
				s.interval = false
				s.p.L, s.p.U, s.p.E = nil, nil, 0
				if bounded {
					s.p.U = make([]float64, n)
					for j := range s.p.U {
						s.p.U[j] = math.Inf(1)
					}
					s.p.U[3] = 1e9
				}
				s.retarget(rng)
				return s
			}
			good1, bad, good2 := mk(), mk(), mk()
			// The second bad term sorts first, so a warm build meets it
			// before the first one.
			bad.p.C[second] = 1e12
			b := NewBatch(0)
			for warm := 0; warm < 2; warm++ {
				for _, kind := range []string{"a", "nan"} {
					name := fmt.Sprintf("gather %d bounded=%v warm=%v %s", g, bounded, warm == 1, kind)
					p := *bad.p
					p.C, p.A = append([]float64(nil), bad.p.C...), append([]float64(nil), bad.p.A...)
					var want string
					if kind == "a" {
						p.A[first] = -0.5
						want = fmt.Sprintf("equilibrate: a[%d] = %g, want > 0", first, -0.5)
						p.C[second] = math.NaN()
					} else {
						p.C[first] = math.NaN()
						cFirst := materialize(&p).C[first]
						want = fmt.Sprintf("equilibrate: NaN breakpoint at %d (c=%g, a=%g)", first, cFirst, p.A[first])
						if bounded {
							want = fmt.Sprintf("equilibrate: NaN breakpoint at %d (c=%g, a=%g, l=%g)", first, cFirst, p.A[first], 0.0)
						}
						p.A[second] = 0
					}
					fast, full := bad.st.FastSorts, bad.st.FullSorts
					b.Reset()
					if err := good1.add(good1.p, good1.x, &good1.st)(b); err != nil {
						t.Fatalf("%s: good Add: %v", name, err)
					}
					err := b.Add(&p, bad.x, &bad.st)
					if err == nil || err.Error() != want {
						t.Fatalf("%s: Add error %v, want %q", name, err, want)
					}
					if bad.st.FastSorts != fast || bad.st.FullSorts != full {
						t.Fatalf("%s: a rejected Add touched its State", name)
					}
					if err := good2.add(good2.p, good2.x, &good2.st)(b); err != nil {
						t.Fatalf("%s: good Add: %v", name, err)
					}
					if b.Len() != 2 {
						t.Fatalf("%s: batch holds %d segments, want 2", name, b.Len())
					}
					if bad, err := b.Solve(); err != nil {
						t.Fatalf("%s: Solve failed at %d: %v", name, bad, err)
					}
					for i, s := range []*gatherSeg{good1, good2} {
						x := make([]float64, n)
						ref, err := solveInsertion(s.add(materialize(s.p), x, nil))
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, fmt.Sprintf("%s: segment %d", name, i), b.Result(i), ref, s.x, x)
					}
				}
				// Warm the bad slot's State on its valid problem, so the
				// next round's Add walks its permutation.
				if _, err := solveOne(b, bad.add(bad.p, bad.x, &bad.st)); err != nil {
					t.Fatal(err)
				}
				if bounded {
					continue
				}
				if bad.st.nev != n || bad.st.perm[0] != second {
					t.Fatalf("gather %d: term %d does not lead the warm order (perm[0] = %d)", g, second, bad.st.perm[0])
				}
			}
			if good1.st.FastSorts == 0 {
				t.Fatalf("gather %d bounded=%v: the good segments never solved warm", g, bounded)
			}
		}
	}
}

// BenchmarkBatchShortSegments times the kernel on the shape of an
// iteration-bound CSR solve: 1,200 subproblems of 20 events gathered
// through a CSR-style index, in batches of 128 subproblems (the core's
// per-batch cap), cold (no States) and warm (one State per subproblem, the
// multipliers drifting slightly between rounds so the repair has a few
// keys to move). It reports ns per exact equilibration.
func BenchmarkBatchShortSegments(b *testing.B) {
	const rows, width, perBatch = 1200, 20, 128
	rng := rand.New(rand.NewPCG(3, 5))
	x0 := make([]float64, rows*width)
	a := make([]float64, rows*width)
	idx := make([]int32, rows*width)
	x := make([]float64, rows*width)
	other := make([]float64, rows)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*1000
		a[k] = x0[k] / 2
		idx[k] = int32((k/width + k%width) % rows)
	}
	for i := range other {
		other[i] = rng.NormFloat64()
	}
	targets := make([]float64, rows)
	for i := range targets {
		for _, v := range x0[i*width : (i+1)*width] {
			targets[i] += v
		}
	}
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			var states []State
			if mode == "warm" {
				states = make([]State, rows)
			}
			batch := NewBatch(perBatch * width)
			p := Problem{Other: other}
			round := func(drift float64) {
				for i := range other {
					other[i] += drift * float64(i%7-3)
				}
				for lo := 0; lo < rows; lo += perBatch {
					batch.Reset()
					for i := lo; i < min(lo+perBatch, rows); i++ {
						s, e := i*width, (i+1)*width
						p.C, p.A, p.Idx, p.R, p.E = x0[s:e], a[s:e], idx[s:e], targets[i], 1e-3
						var st *State
						if states != nil {
							st = &states[i]
						}
						if err := batch.Add(&p, x[s:e], st); err != nil {
							b.Fatal(err)
						}
					}
					if bad, err := batch.Solve(); err != nil {
						b.Fatalf("subproblem %d: %v", lo+bad, err)
					}
				}
			}
			round(0) // engage the warm States
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(1e-7 * float64(1-2*(i&1)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/equil")
		})
	}
}
