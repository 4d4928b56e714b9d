package equilibrate

import (
	"fmt"
	"math"
	"slices"

	"sea/internal/sortx"
)

// Batch solves many exact-equilibration subproblems as one fused unit
// instead of m independent sort-and-sweeps. Subproblems are accumulated with
// Add/AddInterval. Add first tries each subproblem's all-interior root (see
// the package comment): it gathers the coefficients c_j — into the output
// block, unless C already holds them — sums the interior line in four fixed
// lanes, and writes x_j = c_j + a_j·λ° until a cell leaves its box. A
// subproblem whose every cell stays inside is finished there, for any
// binding side of an interval too: it builds no event and no key, is never
// sorted, and leaves its State untouched (Interior reports it). Any other
// contributes a contiguous segment of the shared event array, with sort
// keys indexed into that concatenated array. An unbounded segment builds
// its breakpoints from the coefficients the interior attempt gathered, so
// none is gathered twice, and a warm
// segment — one whose State carries a valid permutation — builds its
// unbounded terms in the previous solve's sorted order, writing every key
// into its slot of the canonical array only, and checks as it goes whether
// the slot came out in order. Solve then runs:
//
//  1. warm repairs: the budgeted insertion pass over each warm slot, which
//     Add already filled in the previous order, skipped for a slot Add
//     found in order. A repair that outruns the budget abandons the slot,
//     and the segment sorts cold from its build-order keys — untouched for
//     a bounded segment, rebuilt from its events for an unbounded one;
//  2. cold segments sorted by size: short ones by straight insertion in
//     their slot, long ones by their own radix, and the rest by one fused
//     stable LSD radix over their *concatenated* keys, followed by a single
//     stable counting pass that distributes keys into their segment slots.
//     The radix keys on the span of the keys (the minimum and maximum of
//     each segment longer than batchInsertionMax, kept during Add or on a
//     failed warm repair, so no sort route needs a pre-pass; the fused sort
//     takes their union): a span of at most sortx.TopBits bits sorts
//     exactly, in one pass per byte it covers, and a wider one by its top
//     sortx.TopBits bits, after which the budgeted insertion pass finishes
//     each slot — or, when that repair runs over budget, the exact span
//     radix re-sorts the segment from its build-order keys. Stability is
//     what makes the segmentation free: after the position-byte passes,
//     ties — including keys of different segments sharing a position — are
//     in global build order, so distributing by segment preserves
//     per-segment (position, build index) order, which IS the canonical
//     order each slot needs;
//  3. per segment, in add order: the State's permutation refreshed (skipped
//     for a warm slot that was already in order, since the slot already is
//     that permutation), then the sweep and primal recovery.
//
// Because the interior decision reads nothing but the subproblem, the
// canonical sorted key array of each segment is unique (strict total order)
// and every stage after the sort runs the same code on identical float
// values, a subproblem's result does not depend on the batch it sits in, on
// the sort route it took, or on its warm start: it is bit-identical to a
// cold batch holding that subproblem alone and sorted by plain insertion.
// Batching, like warm starting, is purely a performance choice.
//
// Add surfaces validation and feasibility errors immediately, before any
// sweep has run, so when subproblem 3 would fail in its sweep and
// subproblem 5 in its pre-check, the batch reports 5. Callers abort the
// phase on the first error either way.
//
// A Batch must not be shared between concurrent solves; allocate one per
// worker. Buffers are allocated when first needed, grow on demand, and are
// retained across Reset.
type Batch struct {
	hint   int // initial capacity of the event-sized buffers (NewBatch)
	segs   []batchSeg
	events []event     // concatenated, in add order
	keys   []sortx.Key // build order, Idx global into events (not written for warm unbounded segments); clobbered by Solve
	sorted []sortx.Key // canonical order, per-segment slots; warm slots filled by Add
	alt    []sortx.Key // radix ping-pong / cold-key gather
	alt2   []sortx.Key // second ping-pong buffer when warm slots force a gather
	segOf  []int32     // global event index -> segment index
	next   []int32     // per-segment write cursors of the distribution pass
	// bounded holds the bounded subproblems' copies. Segments point into
	// it, and those pointers stay valid when it grows: the old backing
	// array keeps the copies made before.
	bounded []Problem
}

// batchSeg is one accumulated subproblem: what Solve needs of its Problem,
// its output block, optional warm-start State, and its [off, off+nev)
// window of the shared event array.
type batchSeg struct {
	// bnd is a bounded subproblem's copy in the batch's arena — its primal
	// recovery recomputes c_j from A, L, U and the gather — and nil for an
	// unbounded one, which reads c_j and a_j back from its events.
	bnd   *Problem
	e, r  float64 // the elastic slope and target
	x     []float64
	st    *State
	off   int32
	nev   int32
	lo    uint64 // minimum key Bits of the segment (taken when nev > batchInsertionMax)
	hi    uint64 // maximum key Bits of the segment
	lb    float64
	done  bool      // solved at Add time (empty or slack-interval subproblem)
	kept  bool      // warm slot already in order (checked by the unbounded build, or the repair moved no key): the State holds it
	route sortRoute // how Solve sorted the segment
	res   Result
}

// sortRoute records which route of Batch.Solve sorted a segment.
type sortRoute uint8

const (
	routeNone      sortRoute = iota // not sorted yet
	routeWarm                       // built in its State's permutation, repaired by the budgeted pass
	routeInsertion                  // straight insertion in its slot
	routeSpan                       // exact span radix, its own or fused
	routeTop                        // top-bits radix, finished by the insertion repair
	routeFallback                   // top-bits repair over budget, re-sorted by the exact span radix
	routeInterior                   // solved at Add by its all-interior root: no sort
)

// NewBatch returns an empty batch sized for about hint concatenated events
// per Solve (the caller's event budget plus one subproblem of overshoot).
// Each event-sized buffer is allocated at that capacity by the first
// segment that needs it, so steady dispatching never grows buffers through
// repeated append doubling, and a batch whose subproblems all solve at
// their interior root allocates none of them. hint ≤ 0 grows everything
// from empty.
func NewBatch(hint int) *Batch {
	if hint <= 0 {
		return &Batch{}
	}
	return &Batch{hint: hint, segs: make([]batchSeg, 0, 64)}
}

// Reset discards accumulated subproblems, keeping buffer capacity.
func (b *Batch) Reset() {
	b.segs = b.segs[:0]
	b.events = b.events[:0]
	b.keys = b.keys[:0]
	b.segOf = b.segOf[:0]
	b.bounded = b.bounded[:0]
}

// Len returns the number of subproblems added since the last Reset.
func (b *Batch) Len() int { return len(b.segs) }

// Result returns the i-th (in add order) subproblem's result. Valid only
// after a successful Solve and until the next Reset.
func (b *Batch) Result(i int) Result { return b.segs[i].res }

// Interior reports whether the i-th (in add order) subproblem was solved at
// its all-interior root, with no sort. Valid from its Add until the next
// Reset.
func (b *Batch) Interior(i int) bool { return b.segs[i].route == routeInterior }

// Add appends one subproblem with output block x (length len(p.C)) and
// optional warm-start State. Validation and feasibility pre-checks run
// here, so structural errors surface at Add rather than at Solve, and so
// does the interior root: a subproblem solved there has its block written
// when Add returns. The slices p references (its gather included) and x
// must stay valid until Solve returns, and x must not overlap them; p
// itself need not.
func (b *Batch) Add(p *Problem, x []float64, st *State) error {
	if err := p.validate(x); err != nil {
		return err
	}
	return b.add(p, x, st)
}

// validate is the shared argument check of Batch.Add, Batch.AddInterval
// and SolveBisection.
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
	if p.E < 0 {
		return fmt.Errorf("equilibrate: negative elastic slope %g", p.E)
	}
	return nil
}

// add is the shared tail of Add and AddInterval: fast paths, feasibility
// pre-checks, the interior root, the event build (straight into the warm
// slot when the State allows) and, for a cold segment on a radix route, the
// key span.
func (b *Batch) add(p *Problem, x []float64, st *State) error {
	n := len(p.C)
	if n == 0 {
		lambda, ops, err := p.emptyRoot()
		if err != nil {
			return err
		}
		b.segs = append(b.segs, batchSeg{x: x, st: st, done: true,
			res: Result{Lambda: lambda, Ops: ops}})
		return nil
	}
	lb := p.sumLower()
	if err := p.feasible(lb); err != nil {
		return err
	}
	c, lambda, total, k, m, ok := p.interiorRoot(x, lb)
	if ok {
		// Charged as a sort and a sweep to root segment k would be.
		ops := int64(7*m) + sortCharge(m) + int64(k) + int64(2*n)
		b.segs = append(b.segs, batchSeg{x: x, st: st, done: true, route: routeInterior,
			res: Result{Lambda: lambda, Total: total, Ops: ops}})
		return nil
	}
	if b.events == nil && b.hint > 0 {
		b.events = make([]event, 0, b.hint)
		b.keys = make([]sortx.Key, 0, b.hint)
	}
	off := len(b.events)
	// Fill the segment field by field in place: a composite literal would be
	// zeroed on the stack and then copied. res is written by Solve.
	b.segs = slices.Grow(b.segs, 1)[:len(b.segs)+1]
	seg := &b.segs[len(b.segs)-1]
	seg.bnd, seg.e, seg.r, seg.lb = nil, p.E, p.R, lb
	seg.x, seg.st, seg.off = x, st, int32(off)
	seg.lo, seg.hi, seg.done, seg.kept, seg.route = 0, 0, false, false, routeNone
	warm := st != nil && st.cool == 0
	var err error
	if p.L == nil && p.U == nil {
		seg.nev = int32(n)
		b.events = slices.Grow(b.events, n)[:off+n]
		b.keys = slices.Grow(b.keys, n)[:off+n]
		ev, keys := b.events[off:], b.keys[off:]
		if warm && st.nev == n {
			slot := b.slots(off + n)[off:]
			if ok, sorted := buildUnboundedPerm(ev, slot, c, p.A, st.perm, int32(off)); ok {
				seg.route, seg.kept = routeWarm, sorted
			} else {
				// Rebuild in build order to name the first bad term.
				err = buildUnbounded(ev, keys, c, p.A, int32(off))
			}
		} else {
			err = buildUnbounded(ev, keys, c, p.A, int32(off))
		}
	} else {
		b.bounded = append(b.bounded, *p)
		seg.bnd = &b.bounded[len(b.bounded)-1]
		b.events, b.keys, err = p.appendBounded(b.events, b.keys)
		m := len(b.events) - off
		seg.nev = int32(m)
		if err == nil && warm && st.nev == m {
			// Pinned cells and finite upper bounds decouple build indices
			// from terms, so a bounded segment builds in build order and
			// then gathers its keys into the previous order.
			slot, keys := b.slots(off + m)[off:off+m], b.keys[off:off+m]
			for k, id := range st.perm[:m] {
				slot[k] = keys[id] // keys are in build order: keys[id].Idx == off+id
			}
			seg.route = routeWarm
		}
	}
	if err != nil {
		b.events, b.keys = b.events[:off], b.keys[:off]
		b.segs = b.segs[:len(b.segs)-1]
		if seg.bnd != nil {
			b.bounded = b.bounded[:len(b.bounded)-1]
		}
		return err
	}
	b.slots(off + int(seg.nev))
	if seg.route != routeWarm {
		b.span(seg)
	}
	return nil
}

// slots returns the canonical key array with room for end keys, growing it
// without losing the warm slots Add has already filled.
func (b *Batch) slots(end int) []sortx.Key {
	if len(b.sorted) < end {
		s := make([]sortx.Key, max(end, 2*len(b.sorted), b.hint))
		copy(s, b.sorted)
		b.sorted = s
	}
	return b.sorted
}

// span takes the key span of a segment bound for the cold sort from its
// build-order keys, when the segment is long enough for a radix route to
// need it; a segment whose variables are all pinned has no keys and keeps
// the empty span. The event→segment map the fused distribution pass needs
// is NOT built here: most batches never take that route, so Solve fills it
// lazily for just the fused segments.
func (b *Batch) span(seg *batchSeg) {
	if int(seg.nev) <= batchInsertionMax {
		return
	}
	keys := b.keys[seg.off : seg.off+seg.nev]
	lo, hi := keys[0].Bits, keys[0].Bits
	for _, k := range keys[1:] {
		lo = min(lo, k.Bits)
		hi = max(hi, k.Bits)
	}
	seg.lo, seg.hi = lo, hi
}

// AddInterval appends one interval-total subproblem lo ≤ Σx ≤ hi instead
// of an equality — the Harrigan–Buchanan (1984) variant for input/output
// estimation with uncertain margins. The elastic slope must be zero.
//
// The multiplier follows the concave dual of the interval constraint: if
// the unconstrained block total lies inside [lo, hi] the constraint is
// slack and λ = 0; a total above hi is pulled down to hi (λ < 0); one below
// lo is pushed up to lo (λ > 0). The free solution at λ = 0 is computed
// immediately; only a binding side contributes a segment to the batch. The
// event list does not depend on the target, so a State's cached
// permutation stays valid as the active side flips between solves.
func (b *Batch) AddInterval(p *Problem, lo, hi float64, x []float64, st *State) error {
	if p.E != 0 {
		return fmt.Errorf("equilibrate: interval total requires E = 0, got %g", p.E)
	}
	if !(lo <= hi) {
		return fmt.Errorf("equilibrate: empty interval [%g, %g]", lo, hi)
	}
	if err := p.validate(x); err != nil {
		return err
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
		b.segs = append(b.segs, batchSeg{x: x, st: st, done: true,
			res: Result{Lambda: 0, Total: total, Ops: int64(2 * n)}})
		return nil
	}
	return b.add(&q, x, st)
}

// The cold-segment routing thresholds (vars only so the route benchmarks
// and the tests' plain-insertion reference can force each path; see
// BenchmarkBatchRoute and docs/PERFORMANCE.md):
//
//   - batchInsertionMax: at or below this event count a segment sorts by
//     straight insertion in its slot. The fused radix amortizes its fixed
//     costs across segments, which keeps this crossover low.
//   - segRadixMin: from this event count a cold segment runs its own radix
//     over the shared ping-pong buffers — its own span is no wider than any
//     union and it skips the distribution pass, which beats the fused pass
//     once the per-sort fixed costs amortize within the segment itself.
//
// Segments between the two join the fused radix + stable distribution pass.
var (
	batchInsertionMax = 24
	segRadixMin       = 128
)

// Solve sorts and sweeps every pending segment. On success it returns
// (-1, nil) and every Result is readable; on failure it returns the add-order
// index of the failing subproblem with the error (earlier segments' States
// may already be refreshed).
func (b *Batch) Solve() (int, error) {
	total := len(b.events)
	keys := b.keys

	// Stage 1: repair the warm slots Add filled in each State's previous
	// order — all but those Add found in order — with the states' counter
	// and cooldown bookkeeping. A repair that outruns the budget abandons
	// the slot, sorts cold from the build order, and backs off before
	// trying again.
	cold := total
	for i := range b.segs {
		seg := &b.segs[i]
		if seg.done {
			continue
		}
		st := seg.st
		if seg.route == routeWarm {
			ok := seg.kept
			if !ok {
				var moved bool
				ok, moved = sortx.InsertionBudgetKeys(b.sorted[seg.off : seg.off+seg.nev])
				seg.kept = !moved
			}
			if ok {
				st.FastSorts++
				cold -= int(seg.nev)
				continue
			}
			st.FullSorts++
			st.cool = replayCooldown
			seg.route = routeNone
			if seg.bnd == nil {
				// The warm unbounded build wrote no build-order keys.
				buildKeys(keys[seg.off:seg.off+seg.nev], b.events[seg.off:seg.off+seg.nev], seg.off)
			}
			b.span(seg)
			continue
		}
		if st != nil {
			st.FullSorts++
			if st.cool > 0 {
				st.cool--
			}
		}
	}

	// Stage 2: sort the cold segments, each by the cheapest correct route.
	// Segments at or below the insertion threshold use per-slot straight
	// insertion; segments of at least segRadixMin events run their own
	// radix over the shared ping-pong buffers — their own spans are no wider
	// than any union and they skip the distribution pass entirely; the
	// small-but-not-tiny remainder, where per-sort fixed costs would
	// dominate, is gathered into ONE fused radix over its concatenated keys
	// followed by a single stable segment-distribution pass. Every route
	// lands the same canonical per-slot order, so the choice is invisible in
	// the results.
	if cold > 0 {
		fused := 0
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for i := range b.segs {
			seg := &b.segs[i]
			if seg.done || seg.route == routeWarm {
				continue
			}
			m := int(seg.nev)
			switch {
			case m <= batchInsertionMax:
				slot := b.sorted[seg.off : int(seg.off)+m]
				copy(slot, keys[seg.off:int(seg.off)+m])
				sortx.InsertionKeys(slot)
				seg.route = routeInsertion
			case m >= segRadixMin:
				if sortx.SpanBits(seg.lo, seg.hi) <= sortx.TopBits {
					b.sortSpan(seg)
					break
				}
				// The top-bits passes read the build-order keys without
				// clobbering them, so the fallback can still sort them.
				b.alt = growKeys(b.alt, m, b.hint)
				slot := b.sorted[seg.off : int(seg.off)+m]
				sortx.RadixKeysTop(slot, keys[seg.off:int(seg.off)+m], b.alt, seg.lo, seg.hi)
				b.repair(seg)
			default:
				fused += m
				lo, hi = min(lo, seg.lo), max(hi, seg.hi)
			}
		}
		if fused > 0 {
			// Gather the remaining cold keys contiguously. The event→segment
			// map is filled here, for just these segments — batches that
			// never reach this route never pay for it.
			b.alt = growKeys(b.alt, fused, b.hint)
			b.segOf = growInt32(b.segOf, total, b.hint)
			g := b.alt[:0]
			for i := range b.segs {
				seg := &b.segs[i]
				if seg.done || seg.route != routeNone {
					continue
				}
				g = append(g, keys[seg.off:seg.off+seg.nev]...)
				for j := seg.off; j < seg.off+seg.nev; j++ {
					b.segOf[j] = int32(i)
				}
			}
			b.alt2 = growKeys(b.alt2, fused, b.hint)
			exact := sortx.SpanBits(lo, hi) <= sortx.TopBits
			src := g
			if exact {
				src = sortx.RadixKeysRange(g, b.alt2[:fused], lo, hi)
			} else {
				sortx.RadixKeysTop(g, g, b.alt2[:fused], lo, hi)
			}
			// Final stable pass: distribute by segment into each slot. With
			// ties already in global build order after the position-byte
			// passes, stability makes every slot canonical by construction
			// after an exact sort, and leaves the top-bits order for the
			// repair otherwise.
			b.next = growInt32(b.next, len(b.segs), 0)
			next, segOf, sorted := b.next, b.segOf, b.sorted
			for i := range b.segs {
				next[i] = b.segs[i].off
			}
			for _, k := range src {
				s := segOf[k.Idx]
				sorted[next[s]] = k
				next[s]++
			}
			for i := range b.segs {
				seg := &b.segs[i]
				switch {
				case seg.done || seg.route != routeNone:
				case exact:
					seg.route = routeSpan
				default:
					b.repair(seg)
				}
			}
		}
	}

	// Stage 3: save states, sweep, and recover each block, in add order.
	// The charge follows the paper's cost model — linear build, n·log₂n
	// sort, sweep — whatever the sort actually cost, so reported operation
	// counts stay comparable.
	for i := range b.segs {
		seg := &b.segs[i]
		if seg.done {
			continue
		}
		m := int(seg.nev)
		sk := b.sorted[int(seg.off) : int(seg.off)+m]
		if st := seg.st; st != nil && !seg.kept {
			st.save(sk, seg.off)
		}
		ops := int64(7*m) + sortCharge(m)
		lambda, extra, err := sweep(b.events, sk, seg.e, seg.r, seg.lb, seg.st)
		if err != nil {
			return i, err
		}
		var tot float64
		if seg.bnd == nil {
			tot = recoverUnbounded(seg.x, b.events[seg.off:int(seg.off)+m], lambda)
		} else {
			tot = seg.bnd.recoverPrimal(seg.x, lambda)
		}
		seg.res = Result{Lambda: lambda, Total: tot, Ops: ops + extra + int64(2*len(seg.x))}
	}
	return -1, nil
}

// sortSpan sorts a cold segment into its slot by the exact span radix, in
// place over its build-order keys (clobbered by contract), ping-ponging
// against the slot: an odd pass count ends in the slot for free, an even
// one copies.
func (b *Batch) sortSpan(seg *batchSeg) {
	slot := b.sorted[seg.off : seg.off+seg.nev]
	res := sortx.RadixKeysRange(b.keys[seg.off:seg.off+seg.nev], slot, seg.lo, seg.hi)
	if &res[0] != &slot[0] {
		copy(slot, res)
	}
	seg.route = routeSpan
}

// repair finishes a slot left in top-bits order with the budgeted insertion
// pass, and re-sorts the segment by the exact span radix when the pass runs
// over budget (many keys sharing a top bucket).
func (b *Batch) repair(seg *batchSeg) {
	if ok, _ := sortx.InsertionBudgetKeys(b.sorted[seg.off : seg.off+seg.nev]); ok {
		seg.route = routeTop
		return
	}
	b.sortSpan(seg)
	seg.route = routeFallback
}

// sortCharges tables the cost model's sort charge m·log₂(m+1) for the
// segment sizes a solve meets most, so stage 3 of Solve skips a logarithm
// per subproblem; sortCharge computes the same expression beyond it.
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

// growKeys returns buf resized to n, reallocating only when capacity is
// short, and then with capacity at least hint.
func growKeys(buf []sortx.Key, n, hint int) []sortx.Key {
	if cap(buf) < n {
		return make([]sortx.Key, n, max(n, hint))
	}
	return buf[:n]
}

// growInt32 is growKeys for []int32.
func growInt32(buf []int32, n, hint int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, max(n, hint))
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
