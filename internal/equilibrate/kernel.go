package equilibrate

import (
	"fmt"
	"math"

	"sea/internal/sortx"
)

// Kernel solves exact-equilibration subproblems one call at a time, with
// scratch buffers reused across calls. Each call, in order:
//
//  1. tries the subproblem's all-interior root (see the package comment):
//     it gathers the coefficients c_j — into the output block, unless C
//     already holds them — sums the interior line in four fixed lanes, and
//     writes x_j = c_j + a_j·λ° until a cell leaves its box. A subproblem
//     whose every cell stays inside is finished there, for any binding side
//     of an interval too: no event, no key, no sort, and its State is left
//     untouched (Result.Interior reports it);
//  2. builds the breakpoint events, an unbounded subproblem from the
//     coefficients the interior attempt gathered, so none is gathered
//     twice. A warm subproblem — one whose State carries a valid
//     permutation — builds in the previous solve's sorted order: an
//     unbounded one writes its keys straight into the canonical slot and
//     checks as it goes whether they came out in order, and a bounded one
//     builds in build order and then gathers its keys into the previous
//     order;
//  3. sorts: a warm slot by the budgeted insertion repair (skipped when the
//     build found it in order); a cold one, or a warm one whose repair ran
//     over budget, by straight insertion up to batchInsertionMax keys and
//     above that by a stable LSD radix over the span of its keys. A span of
//     at most sortx.TopBits bits sorts exactly, in one pass per byte it
//     covers; a wider one by its top sortx.TopBits bits, after which the
//     budgeted insertion pass finishes the order — or, when that repair
//     runs over budget, the exact span radix re-sorts the build-order keys;
//  4. saves the State's permutation (skipped for a warm slot that was
//     already in order, since the State already holds it), sweeps, and
//     recovers the primal block.
//
// Because the interior decision reads nothing but the subproblem, and the
// canonical sorted key array is unique (strict total order) whichever route
// produced it, a subproblem's result does not depend on the route it took
// or on its warm start: it is bit-identical to a cold solve sorted by plain
// insertion. Warm starting is purely a performance choice.
//
// A Kernel must not be shared between concurrent solves; allocate one per
// worker. Its buffers are allocated when first needed, grow on demand, and
// are retained across calls.
type Kernel struct {
	hint   int         // initial capacity of the event-sized buffers (NewKernel)
	events []event     // in build order
	keys   []sortx.Key // build order (not written by a warm unbounded build); clobbered by the span radix
	sorted []sortx.Key // canonical order
	alt    []sortx.Key // the top-bits radix's ping-pong buffer
}

// sortRoute names the route of a cold sort.
type sortRoute uint8

const (
	routeInsertion sortRoute = iota // straight insertion in the slot
	routeSpan                       // exact span radix
	routeTop                        // top-bits radix, finished by the insertion repair
	routeFallback                   // top-bits repair over budget, re-sorted by the exact span radix
)

// NewKernel returns a kernel sized for subproblems of about hint events
// (the largest a caller hands it: two per cell with upper bounds). Each
// event-sized buffer is allocated at that capacity by the first call that
// needs it, so steady solving never grows buffers through repeated append
// doubling, and a kernel whose subproblems all solve at their interior root
// allocates none of them. hint ≤ 0 grows everything from empty.
func NewKernel(hint int) *Kernel {
	return &Kernel{hint: hint}
}

// Solve solves one subproblem into the output block x (length len(p.C)),
// with optional warm-start State st. x must not overlap the slices p
// references (its gather included).
func (k *Kernel) Solve(p *Problem, x []float64, st *State) (Result, error) {
	if err := p.validate(x); err != nil {
		return Result{}, err
	}
	return k.solve(p, x, st)
}

// validate is the shared argument check of Kernel.Solve,
// Kernel.SolveInterval and SolveBisection.
func (p *Problem) validate(x []float64) error {
	n := len(p.C)
	if len(p.A) != n || (p.U != nil && len(p.U) != n) || (p.L != nil && len(p.L) != n) || len(x) != n {
		return fmt.Errorf("equilibrate: inconsistent lengths (c=%d a=%d u=%d l=%d x=%d)",
			len(p.C), len(p.A), len(p.U), len(p.L), len(x))
	}
	if p.Other != nil && (p.Idx == nil && len(p.Other) < n || p.Idx != nil && len(p.Idx) != n) {
		return fmt.Errorf("equilibrate: inconsistent gather (c=%d other=%d idx=%d)",
			n, len(p.Other), len(p.Idx))
	}
	return p.checkSlope()
}

// checkSlope rejects a negative elastic slope.
func (p *Problem) checkSlope() error {
	if p.E < 0 {
		return fmt.Errorf("equilibrate: negative elastic slope %g", p.E)
	}
	return nil
}

// SolveInterval solves one interval-total subproblem lo ≤ Σx ≤ hi instead
// of an equality — the Harrigan–Buchanan (1984) variant for input/output
// estimation with uncertain margins. The elastic slope must be zero.
//
// The multiplier follows the concave dual of the interval constraint: if
// the unconstrained block total lies inside [lo, hi] the constraint is
// slack and λ = 0; a total above hi is pulled down to hi (λ < 0); one below
// lo is pushed up to lo (λ > 0). The event list does not depend on the
// target, so a State's cached permutation stays valid as the active side
// flips between solves.
func (k *Kernel) SolveInterval(p *Problem, lo, hi float64, x []float64, st *State) (Result, error) {
	if p.E != 0 {
		return Result{}, fmt.Errorf("equilibrate: interval total requires E = 0, got %g", p.E)
	}
	if !(lo <= hi) {
		return Result{}, fmt.Errorf("equilibrate: empty interval [%g, %g]", lo, hi)
	}
	if err := p.validate(x); err != nil {
		return Result{}, err
	}
	n := len(p.C)
	var total float64
	for j := 0; j < n; j++ {
		v := p.clampVal(j, p.coef(j))
		x[j] = v
		total += v
	}
	q := *p
	switch {
	case total > hi:
		q.R = hi
	case total < lo:
		q.R = lo
	default:
		return Result{Lambda: 0, Total: total, Ops: int64(2 * n)}, nil
	}
	return k.solve(&q, x, st)
}

// The cold sort's routing threshold: at or below batchInsertionMax events a
// subproblem sorts by straight insertion, above it by radix. It is a var
// only so the tests' plain-insertion reference and their radix-route checks
// can force each path.
var batchInsertionMax = 24

// solve is the shared tail of Solve and SolveInterval: fast paths,
// feasibility pre-checks, the interior root, then the build, sort, sweep
// and primal recovery. The charge follows the paper's cost model — linear
// build, n·log₂n sort, sweep — whatever the sort actually cost, so reported
// operation counts stay comparable.
func (k *Kernel) solve(p *Problem, x []float64, st *State) (Result, error) {
	n := len(p.C)
	if n == 0 {
		lambda, ops, err := p.emptyRoot()
		if err != nil {
			return Result{}, err
		}
		return Result{Lambda: lambda, Ops: ops}, nil
	}
	lb := p.sumLower()
	if err := p.feasible(lb); err != nil {
		return Result{}, err
	}
	c, lambda, total, seg, m, ok := p.interiorRoot(x, lb)
	if ok {
		return Result{Lambda: lambda, Total: total, Ops: InteriorOps(m, seg, n), Interior: true}, nil
	}

	warm := st != nil && st.cool == 0
	unbounded := p.L == nil && p.U == nil
	var replay, inOrder bool
	var err error
	if unbounded {
		m = n
		k.events, k.keys, k.sorted = grow(k.events, m, k.hint), grow(k.keys, m, k.hint), grow(k.sorted, m, k.hint)
		if warm && st.nev == m {
			replay, inOrder = buildUnboundedPerm(k.events, k.sorted, c, p.A, st.perm)
		}
		if !replay {
			// Cold, or the warm build met a rejected term — possibly not
			// the first in build order, so this build names it.
			err = buildUnbounded(k.events, k.keys, c, p.A)
		}
	} else {
		// A bounded build appends at most two events per cell.
		k.events, k.keys, err = p.appendBounded(grow(k.events, 2*n, k.hint)[:0], grow(k.keys, 2*n, k.hint)[:0])
		m = len(k.events)
		k.sorted = grow(k.sorted, m, k.hint)
		if err == nil && warm && st.nev == m {
			// Pinned cells and finite upper bounds decouple build indices
			// from terms, so a bounded subproblem builds in build order and
			// then gathers its keys into the previous order.
			for i, id := range st.perm[:m] {
				k.sorted[i] = k.keys[id]
			}
			replay = true
		}
	}
	if err != nil {
		return Result{}, err
	}

	// Sort. A replay that outruns the repair budget sorts cold from the
	// build order and backs off before trying again.
	sk := k.sorted[:m]
	if replay {
		ok := inOrder
		if !ok {
			var moved bool
			ok, moved = sortx.InsertionBudgetKeys(sk)
			inOrder = !moved
		}
		if ok {
			st.FastSorts++
		} else {
			st.FullSorts++
			st.cool = replayCooldown
			replay = false
			if unbounded {
				buildKeys(k.keys[:m], k.events[:m])
			}
		}
	} else if st != nil {
		st.FullSorts++
		if st.cool > 0 {
			st.cool--
		}
	}
	if !replay {
		k.sortCold(m)
	}

	if st != nil && !inOrder {
		st.save(sk)
	}
	lambda, extra, err := sweep(k.events, sk, p.E, p.R, lb, st)
	if err != nil {
		return Result{}, err
	}
	if unbounded {
		total = recoverUnbounded(x, k.events[:n], lambda)
	} else {
		total = p.recoverPrimal(x, lambda)
	}
	return Result{Lambda: lambda, Total: total, Ops: int64(7*m) + sortCharge(m) + extra + int64(2*n)}, nil
}

// sortCold sorts the m build-order keys into the canonical slot and returns
// the route it took. The radix keys on the span of the keys, taken here in
// one pass; the exact span radix ping-pongs between the build-order keys
// (clobbered) and the slot, so an odd pass count ends in the slot for free
// and an even one copies.
func (k *Kernel) sortCold(m int) sortRoute {
	keys, slot := k.keys[:m], k.sorted[:m]
	if m <= batchInsertionMax {
		copy(slot, keys)
		sortx.InsertionKeys(slot)
		return routeInsertion
	}
	lo, hi := keys[0].Bits, keys[0].Bits
	for _, key := range keys[1:] {
		lo = min(lo, key.Bits)
		hi = max(hi, key.Bits)
	}
	route := routeSpan
	if sortx.SpanBits(lo, hi) > sortx.TopBits {
		// The top-bits passes read the build-order keys without clobbering
		// them, so the fallback can still sort them.
		k.alt = grow(k.alt, m, k.hint)
		sortx.RadixKeysTop(slot, keys, k.alt, lo, hi)
		if ok, _ := sortx.InsertionBudgetKeys(slot); ok {
			return routeTop
		}
		route = routeFallback
	}
	if res := sortx.RadixKeysRange(keys, slot, lo, hi); &res[0] != &slot[0] {
		copy(slot, res)
	}
	return route
}

// sortCharges tables the cost model's sort charge m·log₂(m+1) for the
// subproblem sizes a solve meets most, so a solve skips a logarithm;
// sortCharge computes the same expression beyond it.
var sortCharges = func() (t [1024]int64) {
	for m := range t {
		t[m] = int64(float64(m) * math.Log2(float64(m)+1))
	}
	return t
}()

// sortCharge is the paper's n·log₂n sort charge for an m-event subproblem.
func sortCharge(m int) int64 {
	if m < len(sortCharges) {
		return sortCharges[m]
	}
	return int64(float64(m) * math.Log2(float64(m)+1))
}

// grow returns buf resized to n, reallocating only when capacity is short,
// and then with capacity at least hint.
func grow[T any](buf []T, n, hint int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, hint))
	}
	return buf[:n]
}

// PresizeStatesSpans gives each cold State in sts permutation capacity for
// its subproblem's events — State i gets ptr[i+1]−ptr[i] (a CSR or CSC
// offset array, or uniform offsets i·n) — all carved from one shared slab,
// so engaging a phase's warm starts costs two allocations instead of one per
// subproblem (the table5/spe250 cold-solve alloc regression). States
// already carrying a permutation keep it, and solves whose event count
// exceeds the span simply grow individually: presizing is purely an
// allocation-count optimization.
func PresizeStatesSpans(sts []State, ptr []int) {
	if len(sts) == 0 {
		return
	}
	base := ptr[0]
	slab := make([]int32, ptr[len(sts)]-base)
	for i := range sts {
		lo, hi := ptr[i]-base, ptr[i+1]-base
		if cap(sts[i].perm) < hi-lo {
			sts[i].perm = slab[lo:lo:hi]
		}
	}
}
