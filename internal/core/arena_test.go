package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"sea/internal/equilibrate"
	"sea/internal/parallel"
	"sea/internal/trace"
)

// sameSolution asserts bit-exact equality of two solutions.
func sameSolution(t *testing.T, name string, got, want *Solution) {
	t.Helper()
	for k := range want.X {
		if got.X[k] != want.X[k] {
			t.Fatalf("%s: X[%d] = %v, want %v (bit-exact)", name, k, got.X[k], want.X[k])
		}
	}
	for i := range want.Lambda {
		if got.Lambda[i] != want.Lambda[i] {
			t.Fatalf("%s: Lambda[%d] = %v, want %v", name, i, got.Lambda[i], want.Lambda[i])
		}
	}
	for j := range want.Mu {
		if got.Mu[j] != want.Mu[j] {
			t.Fatalf("%s: Mu[%d] = %v, want %v", name, j, got.Mu[j], want.Mu[j])
		}
	}
	sameBits(t, name+": S", got.S, want.S)
	sameBits(t, name+": D", got.D, want.D)
	sameBits(t, name+": Residual", []float64{got.Residual}, []float64{want.Residual})
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, want %d", name, got.Iterations, want.Iterations)
	}
	if got.Objective != want.Objective || got.DualValue != want.DualValue {
		t.Fatalf("%s: objective/dual %v/%v, want %v/%v", name, got.Objective, got.DualValue, want.Objective, want.DualValue)
	}
}

// sameBits requires got and want to match bit for bit.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s[%d] = %v, want %v (bit-exact)", name, k, got[k], want[k])
		}
	}
}

// TestWarmStartAblationBitExact: the kernel's warm-started sorts must be a
// pure performance choice — disabling them (the disableWarmStart test hook)
// changes nothing in the result, on dense and CSR storage, for every worker
// count, and on every round of an arena-steady solve, where the warm starts
// replay the previous solve's permutations from the first iteration on.
func TestWarmStartAblationBitExact(t *testing.T) {
	t.Cleanup(func() { disableWarmStart = false })
	inputs := map[string]*DiagonalProblem{
		"dense": determinismProblem(t),
		"csr":   sparseFamilies(t)["fixed/bounded"],
	}
	opts := func(procs int) *Options {
		o := DefaultOptions()
		o.Criterion = MaxAbsDelta
		o.Epsilon = 1e-6
		o.Procs = procs
		return o
	}
	for name, p := range inputs {
		disableWarmStart = true
		ref, err := SolveDiagonal(context.Background(), p, opts(1))
		disableWarmStart = false
		if err != nil {
			t.Fatalf("%s: cold reference: %v", name, err)
		}
		for _, procs := range []int{1, 2, 7, 16} {
			warm, err := SolveDiagonal(context.Background(), p, opts(procs))
			if err != nil {
				t.Fatalf("%s: warm procs=%d: %v", name, procs, err)
			}
			sameSolution(t, fmt.Sprintf("%s procs=%d: warm vs cold", name, procs), warm, ref)

			ar := NewArena()
			for round := 1; round <= 3; round++ {
				o := opts(procs)
				o.Arena = ar
				sol, err := SolveDiagonal(context.Background(), p, o)
				if err != nil {
					ar.Close()
					t.Fatalf("%s: arena procs=%d round %d: %v", name, procs, round, err)
				}
				sameSolution(t, fmt.Sprintf("%s procs=%d arena round %d: warm vs cold", name, procs, round), sol, ref)
			}
			ar.Close()
		}
	}
}

// TestWarmSaveSkipKeepsPerm: after a warm repair that moved no key, the
// kernel skips rewriting the State's permutation. States refreshed that way
// must hold exactly what an unconditional save leaves. The reference run
// records every State after each iteration and then resets it, so each
// phase sorts cold and saves. Three arena rounds of the same problem make
// the skip common: a round replays the matching iteration of the previous
// one on identical breakpoints.
func TestWarmSaveSkipKeepsPerm(t *testing.T) {
	inputs := map[string]*DiagonalProblem{
		"dense": determinismProblem(t),
		"csr":   sparseFamilies(t)["fixed/bounded"],
	}
	// perm reads a State's cached permutation, perm[:nev].
	perm := func(s *equilibrate.State) []int64 {
		v := reflect.ValueOf(s).Elem()
		p, nev := v.FieldByName("perm"), int(v.FieldByName("nev").Int())
		out := make([]int64, nev)
		for k := range out {
			out[k] = p.Index(k).Int()
		}
		return out
	}
	type slot struct{ side, k, i int }
	for name, p := range inputs {
		// run solves p three times through one arena and returns the last
		// permutation each State held, and the warm repairs that ran.
		run := func(reset bool) (map[slot][]int64, int64) {
			ar := NewArena()
			defer ar.Close()
			last := map[slot][]int64{}
			var fast int64
			each := func(f func(slot, *equilibrate.State)) {
				for si, sd := range []*side{&ar.st.rows, &ar.st.cols} {
					for k, sts := range sd.slots {
						for i := range sts {
							f(slot{si, k, i}, &sts[i])
						}
					}
				}
			}
			record := func(at slot, s *equilibrate.State) {
				// A reset State holds no permutation until its slot's
				// next phase saves one.
				_, seen := last[at]
				if p := perm(s); len(p) > 0 || !seen {
					last[at] = p
				}
				if reset {
					s.Reset()
				}
			}
			for round := 1; round <= 3; round++ {
				o := DefaultOptions()
				o.Criterion = MaxAbsDelta
				o.Epsilon = 1e-6
				o.Arena = ar
				if reset {
					o.Trace = trace.Func(func(trace.Event) { each(record) })
				}
				if _, err := SolveDiagonal(context.Background(), p, o); err != nil {
					t.Fatalf("%s reset=%v round %d: %v", name, reset, round, err)
				}
			}
			if !reset {
				each(record)
			}
			each(func(_ slot, s *equilibrate.State) { fast += s.FastSorts })
			return last, fast
		}
		got, fast := run(false)
		want, _ := run(true)
		if fast == 0 {
			t.Fatalf("%s: no warm repair ran", name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d states, reference %d", name, len(got), len(want))
		}
		for at, w := range want {
			if g := got[at]; !slices.Equal(g, w) {
				t.Fatalf("%s: state %+v holds perm %v, unconditional save %v", name, at, g, w)
			}
		}
	}
}

// TestArenaReuseBitExact: repeated solves through one arena — first cold,
// then fully warm — must match a fresh, arena-free solve bit for bit, and
// the arena must survive shape changes by rebuilding.
func TestArenaReuseBitExact(t *testing.T) {
	p := determinismProblem(t)
	opts := func() *Options {
		o := DefaultOptions()
		o.Criterion = MaxAbsDelta
		o.Epsilon = 1e-6
		return o
	}
	ref, err := SolveDiagonal(context.Background(), p, opts())
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	ar := NewArena()
	defer ar.Close()
	for trial := 0; trial < 3; trial++ {
		o := opts()
		o.Arena = ar
		sol, err := SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatalf("arena solve %d: %v", trial, err)
		}
		sameSolution(t, "arena", sol, ref)
	}

	// A different shape through the same arena rebuilds and stays correct.
	small := smallProblem(t, 13, 9)
	refSmall, err := SolveDiagonal(context.Background(), small, opts())
	if err != nil {
		t.Fatalf("small reference: %v", err)
	}
	o := opts()
	o.Arena = ar
	sol, err := SolveDiagonal(context.Background(), small, o)
	if err != nil {
		t.Fatalf("arena small solve: %v", err)
	}
	sameSolution(t, "arena after shape change", sol, refSmall)

	// And back to the original shape (cold again after the rebuild).
	o = opts()
	o.Arena = ar
	sol, err = SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatalf("arena refill solve: %v", err)
	}
	sameSolution(t, "arena refilled", sol, ref)
}

// smallProblem builds a fixed-seed bounded fixed-totals instance of the
// given shape.
func smallProblem(t *testing.T, m, n int) *DiagonalProblem {
	t.Helper()
	rng := rand.New(rand.NewPCG(9, 11))
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = rng.Float64() * 5
		gamma[k] = 0.5 + rng.Float64()
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := 1.1 * x0[i*n+j]
			s0[i] += v
			d0[j] += v
		}
	}
	p, err := NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestArenaSteadyStateAllocs: with an arena and a caller-owned runner,
// repeated same-shape solves must allocate (near) nothing — the acceptance
// criterion for the reusable-arena layer.
func TestArenaSteadyStateAllocs(t *testing.T) {
	p := determinismProblem(t)
	pool := parallel.NewPool(1)
	defer pool.Close()
	ar := NewArena()
	defer ar.Close()
	o := DefaultOptions()
	o.Criterion = MaxAbsDelta
	o.Epsilon = 1e-6
	o.Runner = pool
	o.Arena = ar

	ctx := context.Background()
	// Warm up: populate the arena and the kernel states.
	for i := 0; i < 2; i++ {
		if _, err := SolveDiagonal(ctx, p, o); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SolveDiagonal(ctx, p, o); err != nil {
			t.Fatal(err)
		}
	})
	// The steady state is a handful of fixed-size allocations (the options
	// copy); anything growing with the problem or iteration count is a leak.
	if allocs > 8 {
		t.Errorf("steady-state solve allocates %.0f objects/op; want ≤ 8", allocs)
	}
}

// TestArenaSingleFlight: an arena backing a running solve must reject a
// second concurrent acquisition rather than corrupt shared state.
func TestArenaSingleFlight(t *testing.T) {
	ar := NewArena()
	if err := ar.acquire(); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := ar.acquire(); err == nil {
		t.Fatal("second acquire succeeded; arenas must be single-flight")
	}
	ar.release()
	if err := ar.acquire(); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	ar.release()
}

// TestArenaGeneralSolver: the general solver accepts an arena for its inner
// diagonal state and stays bit-exact across reuse.
func TestArenaGeneralSolver(t *testing.T) {
	gp := randGeneralFixed(rand.New(rand.NewPCG(21, 22)), 6, 8)
	o := DefaultOptions()
	o.Criterion = MaxAbsDelta
	o.Epsilon = 1e-6
	ref, err := SolveGeneral(context.Background(), gp, o)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	ar := NewArena()
	defer ar.Close()
	for trial := 0; trial < 2; trial++ {
		oa := DefaultOptions()
		oa.Criterion = MaxAbsDelta
		oa.Epsilon = 1e-6
		oa.Arena = ar
		sol, err := SolveGeneral(context.Background(), gp, oa)
		if err != nil {
			t.Fatalf("arena general solve %d: %v", trial, err)
		}
		for k := range ref.X {
			if sol.X[k] != ref.X[k] {
				t.Fatalf("trial %d: X[%d] = %v, want %v", trial, k, sol.X[k], ref.X[k])
			}
		}
		if sol.Iterations != ref.Iterations {
			t.Fatalf("trial %d: %d iterations, want %d", trial, sol.Iterations, ref.Iterations)
		}
	}
}
