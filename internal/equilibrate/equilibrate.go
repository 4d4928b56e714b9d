// Package equilibrate implements exact equilibration, the closed-form solver
// for the single-constraint separable quadratic subproblems that the
// splitting equilibration algorithm creates — the supply-market / demand-
// market exact equilibration of Eydeland and Nagurney (1989), extended with
// the elastic total of the paper's Section 3.1.1, the box bounds of the
// Ohuchi–Kaji (1984) variant, and the interval totals of Harrigan–Buchanan
// (1984).
//
// Every row (or column) subproblem of SEA has the form
//
//	min_{l≤x≤u, s}  Σ_j γ_j (x_j − x⁰_j)² − Σ_j μ_j x_j + α (s − s⁰)²
//	s.t.            Σ_j x_j = s
//
// whose KKT conditions reduce, with a_j = 1/(2γ_j) and c_j = x⁰_j + a_j μ_j,
// to the scalar piecewise-linear equation
//
//	φ(λ) = Σ_j clamp(c_j + a_j λ, l_j, u_j) + e·λ = r
//
// where e = 1/(2α) (0 for a fixed total), r = s⁰ (or the fixed total), the
// box defaults to [0, ∞) — the classical nonnegativity constraint — and λ is
// the Lagrange multiplier of the conservation constraint. φ is
// nondecreasing, so the root is found by sorting the breakpoints of the
// clamps and sweeping the segments once: O(n log n) total, dominated by the
// sort — the paper's "7n + n ln n + 2n operations".
//
// Across SEA's outer iterations the duals settle, so consecutive solves of
// the same subproblem slot see nearly identical breakpoint orders. A
// persistent State caches the previous solve's sorted permutation; building
// the next solve's keys in that order and repairing the handful of drifted
// positions with a budgeted insertion pass makes steady-state re-solves
// amortized O(n) instead of O(n log n). The sort operates on compact (position-bits, build-index) keys
// rather than the event payloads; the canonical order — position, then build
// index — is a strict total order, so the sorted key array is unique
// whichever sort produced it, and warm-started solves are bit-identical to
// cold ones.
//
// Batch is the one entry into the kernel: callers add any number of
// subproblems and solve them together. SolveBisection and Phi evaluate the
// same subproblem independently, as references for tests and ablations.
package equilibrate

import (
	"errors"
	"fmt"
	"math"

	"sea/internal/sortx"
)

// ErrInfeasible is returned when the subproblem has no feasible point:
// a fixed total that is negative, or that exceeds the sum of the upper
// bounds.
var ErrInfeasible = errors.New("equilibrate: infeasible subproblem")

// event is a slope change of φ: at position pos, the total slope changes by
// da and the total intercept by dc. A term j activating at its lower
// breakpoint contributes (+a_j, +c_j); a term saturating at its upper bound
// contributes (−a_j, u_j − c_j). Events stay in build order; the sort runs
// over a parallel array of compact sortx.Key values — (order-preserving
// position bits, build index) — and the sweep follows the sorted keys back
// into this array. The (position, build index) pair is a strict total order,
// so the sorted key array is unique regardless of which sort algorithm (or
// starting permutation) produced it — the invariant behind bit-identical
// warm starts.
type event struct {
	pos float64
	da  float64
	dc  float64
}

// State carries warm-start information for one subproblem slot (one row or
// one column of SEA) across repeated solves. The zero value is a cold state.
// A State must not be shared between concurrent solves, and it only helps —
// and only guarantees bit-identical results — when reused for the same slot
// with the same event-build shape (same bound pattern and length); a shape
// change is detected and falls back to a cold sort.
type State struct {
	// perm[k] is the build index of the k-th event in the previous solve's
	// sorted order. Batch.Add builds the next solve's keys in this order.
	perm []int32
	nev  int

	// LastSeg is the sorted-segment index where the previous root landed;
	// exposed as a diagnostic for locality studies.
	LastSeg int
	// cool counts solves left to skip the replay after a failed one: a
	// replay that exhausts the insertion budget has paid a gather plus the
	// burned budget for nothing, so the state backs off for a few solves
	// (still refreshing the permutation each time) before trying again.
	cool uint8
	// FastSorts counts warm re-solves whose breakpoint order was recovered
	// by the budgeted nearly-sorted pass; FullSorts counts solves that paid
	// the full O(n log n) sort (including every cold solve).
	FastSorts int64
	FullSorts int64
}

// Reset discards the cached permutation so the next solve runs cold. The
// counters are kept; they describe the State's lifetime.
func (st *State) Reset() { st.nev, st.cool = 0, 0 }

// replayCooldown is how many solves a state sits out after a failed replay.
const replayCooldown = 3

// Problem is one exact-equilibration instance in kernel form. See the
// package comment for the mapping from SEA subproblems.
type Problem struct {
	// C and A define the unconstrained stationary values c_j + a_j·λ of
	// each variable. A must be strictly positive (it is 1/(2γ_j)).
	C []float64
	A []float64
	// Other, when non-nil, makes C the base of a gather: the coefficient is
	// c_j = C_j + A_j·Other[Idx_j] (Other[j] when Idx is nil) — SEA's
	// x⁰_j + a_j·μ_j, with the opposite side's multipliers in Other. The
	// kernel evaluates it while building each breakpoint, so a caller never
	// materializes c. With Other nil, C holds c itself and Idx is ignored.
	Other []float64
	Idx   []int32
	// U holds optional upper bounds u_j > 0; nil means all +Inf (the
	// classical problem). Entries may be math.Inf(1).
	U []float64
	// L holds optional lower bounds 0 ≤ l_j (< u_j); nil means all zero —
	// the classical nonnegativity constraint (4). Together with U this is
	// the full Ohuchi–Kaji box.
	L []float64
	// E is the elastic slope e = 1/(2α) ≥ 0; zero for a fixed total.
	E float64
	// R is the target: the fixed total, or s⁰ for an elastic total.
	R float64
}

// coef returns the j-th coefficient c_j, gathered when Other is set. Every
// reader of c evaluates this expression — the bounded build and primal
// recovery, φ, and the unbounded build loops, which inline it — so they all
// see the same bits.
func (p *Problem) coef(j int) float64 {
	c := p.C[j]
	if p.Other != nil {
		if p.Idx != nil {
			c += p.A[j] * p.Other[p.Idx[j]]
		} else {
			c += p.A[j] * p.Other[j]
		}
	}
	return c
}

// lower returns the j-th lower bound.
func (p *Problem) lower(j int) float64 {
	if p.L == nil {
		return 0
	}
	return p.L[j]
}

// clampVal applies the box to a stationary value.
func (p *Problem) clampVal(j int, v float64) float64 {
	if lo := p.lower(j); v < lo {
		return lo
	}
	if p.U != nil && v > p.U[j] {
		return p.U[j]
	}
	return v
}

// Result reports the solution of one subproblem.
type Result struct {
	// Lambda is the Lagrange multiplier of the conservation constraint.
	Lambda float64
	// Total is Σ_j x_j at Lambda.
	Total float64
	// Ops is the abstract operation count charged, following the paper's
	// model: linear build and sweep work plus n·log₂n for the sort.
	Ops int64
}

// recoverPrimal writes the optimal block of a bounded subproblem at lambda
// into x and returns its total. It recomputes each c_j with coef, the
// expression the event build used; an unbounded block reads c_j and a_j
// back from its events instead (recoverUnbounded).
func (p *Problem) recoverPrimal(x []float64, lambda float64) float64 {
	var total float64
	for j := range x {
		v := p.clampVal(j, p.coef(j)+p.A[j]*lambda)
		x[j] = v
		total += v
	}
	return total
}

// recoverUnbounded writes the optimal block of an unbounded subproblem at
// lambda into x and returns its total, branch-free. ev holds the block's
// activation events in build order, one per variable, whose dc and da are
// exactly c_j and a_j.
func recoverUnbounded(x []float64, ev []event, lambda float64) float64 {
	var total float64
	ev = ev[:len(x)]
	for j, e := range ev {
		v := e.dc + e.da*lambda
		if v < 0 {
			v = 0
		}
		x[j] = v
		total += v
	}
	return total
}

// emptyRoot solves the n = 0 subproblem: only the elastic term remains.
func (p *Problem) emptyRoot() (float64, int64, error) {
	if p.E > 0 {
		return p.R / p.E, 1, nil
	}
	if p.R == 0 {
		return 0, 1, nil
	}
	return 0, 1, ErrInfeasible
}

// sumLower returns Σ_j l_j, identically zero with no explicit lower bounds.
func (p *Problem) sumLower() float64 {
	var lb float64
	for _, l := range p.L {
		lb += l
	}
	return lb
}

// feasible pre-checks a fixed total against the reachable range [Σl, Σu] of
// Σx. Elastic totals are always feasible.
func (p *Problem) feasible(lb float64) error {
	if p.E != 0 {
		return nil
	}
	if p.R < lb-1e-9*(1+math.Abs(lb)) {
		return ErrInfeasible
	}
	if p.U != nil {
		var ub float64
		for _, u := range p.U {
			ub += u
		}
		if !math.IsInf(ub, 1) && p.R > ub {
			return ErrInfeasible
		}
	}
	return nil
}

// The event build. One activation event per term (where it leaves its
// lower bound), plus one saturation event per finite upper bound; each sort
// key's Idx is its event's index in the batch's concatenated event array. A
// -0.0 position is normalized to +0.0 so the key order agrees with float
// comparison (±0 tie under ==, split by their bit patterns). Positions must
// not be NaN — the canonical comparison is a total order only then — so NaN
// breakpoints (from NaN coefficients) are rejected, as is a ≤ 0, naming the
// first bad term in build order.

// activation returns the activation event of an unbounded term with
// coefficient c and slope a, and its key bits. ok is false when a ≤ 0 or
// the breakpoint is NaN; the caller reports the term with termError.
func activation(c, a float64) (e event, bits uint64, ok bool) {
	pos := -c / a
	if pos == 0 {
		pos = 0
	}
	return event{pos: pos, da: a, dc: c}, sortx.FloatBits(pos), a > 0 && pos == pos
}

// termError is the error of an unbounded term j that activation rejected.
func termError(j int, c, a float64) error {
	if !(a > 0) {
		return fmt.Errorf("equilibrate: a[%d] = %g, want > 0", j, a)
	}
	return fmt.Errorf("equilibrate: NaN breakpoint at %d (c=%g, a=%g)", j, c, a)
}

// buildUnbounded writes the events and keys of an unbounded p (L = U = nil,
// the hottest case) into ev and keys, one per term in build order, with key
// Idx base+j. The coefficient gather is fused into the loop — one loop per
// gather form, chosen once per subproblem — so c never touches memory.
func (p *Problem) buildUnbounded(ev []event, keys []sortx.Key, base int32) error {
	n := len(ev)
	cs, as, keys := p.C[:n], p.A[:n], keys[:n]
	switch o := p.Other; {
	case o == nil:
		for j := range ev {
			c, a := cs[j], as[j]
			e, bits, ok := activation(c, a)
			if !ok {
				return termError(j, c, a)
			}
			ev[j], keys[j] = e, sortx.Key{Bits: bits, Idx: base + int32(j)}
		}
	case p.Idx == nil:
		o = o[:n]
		for j := range ev {
			a := as[j]
			c := cs[j] + a*o[j]
			e, bits, ok := activation(c, a)
			if !ok {
				return termError(j, c, a)
			}
			ev[j], keys[j] = e, sortx.Key{Bits: bits, Idx: base + int32(j)}
		}
	default:
		ix := p.Idx[:n]
		for j := range ev {
			a := as[j]
			c := cs[j] + a*o[ix[j]]
			e, bits, ok := activation(c, a)
			if !ok {
				return termError(j, c, a)
			}
			ev[j], keys[j] = e, sortx.Key{Bits: bits, Idx: base + int32(j)}
		}
	}
	return nil
}

// buildUnboundedPerm is buildUnbounded for a warm start: it walks the terms
// in perm order (the previous solve's sorted build indices) and writes each
// key both into keys at its build index and into slot at its position in
// perm, so the slot starts in the previous order with no separate gather
// pass. Events and keys end up exactly as buildUnbounded writes them. It
// returns false on a rejected term — possibly not the first in build
// order, so the caller rebuilds with buildUnbounded to report it.
func (p *Problem) buildUnboundedPerm(ev []event, keys, slot []sortx.Key, perm []int32, base int32) bool {
	n := len(ev)
	cs, as, keys, slot, perm := p.C[:n], p.A[:n], keys[:n], slot[:n], perm[:n]
	switch o := p.Other; {
	case o == nil:
		for k, j := range perm {
			e, bits, ok := activation(cs[j], as[j])
			if !ok {
				return false
			}
			key := sortx.Key{Bits: bits, Idx: base + j}
			ev[j], keys[j], slot[k] = e, key, key
		}
	case p.Idx == nil:
		o = o[:n]
		for k, j := range perm {
			a := as[j]
			e, bits, ok := activation(cs[j]+a*o[j], a)
			if !ok {
				return false
			}
			key := sortx.Key{Bits: bits, Idx: base + j}
			ev[j], keys[j], slot[k] = e, key, key
		}
	default:
		ix := p.Idx[:n]
		for k, j := range perm {
			a := as[j]
			e, bits, ok := activation(cs[j]+a*o[ix[j]], a)
			if !ok {
				return false
			}
			key := sortx.Key{Bits: bits, Idx: base + j}
			ev[j], keys[j], slot[k] = e, key, key
		}
	}
	return true
}

// appendBounded appends the events and keys of a bounded p onto ev and
// keys, in build order. On error the returned slices may carry partial
// appends; callers truncate.
func (p *Problem) appendBounded(ev []event, keys []sortx.Key) ([]event, []sortx.Key, error) {
	for j := range p.C {
		a, c := p.A[j], p.coef(j)
		if !(a > 0) {
			return ev, keys, fmt.Errorf("equilibrate: a[%d] = %g, want > 0", j, a)
		}
		l := p.lower(j)
		if p.U != nil && p.U[j] == l && !math.IsInf(l, 0) {
			// Pinned variable (u = l): x_j ≡ l for every λ, already
			// counted in Σl by sumLower, so it contributes no events.
			// Skipping it — rather than emitting a coincident
			// activation/saturation pair whose dc contributions cancel
			// only in exact arithmetic — keeps the event stream (and
			// hence the sweep's floating-point trajectory) identical to
			// a problem that omits the variable entirely. That identity
			// is what makes a densified CSR problem solve bit-identically
			// to its sparse form.
			continue
		}
		pos := (l - c) / a
		if pos != pos {
			return ev, keys, fmt.Errorf("equilibrate: NaN breakpoint at %d (c=%g, a=%g, l=%g)", j, c, a, l)
		}
		if pos == 0 {
			pos = 0
		}
		keys = append(keys, sortx.Key{Bits: sortx.FloatBits(pos), Idx: int32(len(ev))})
		ev = append(ev, event{pos: pos, da: a, dc: c - l})
		if p.U != nil && !math.IsInf(p.U[j], 1) {
			u := p.U[j]
			if u < l {
				return ev, keys, fmt.Errorf("equilibrate: bounds [%g, %g] empty at %d", l, u, j)
			}
			pos = (u - c) / a
			if pos != pos {
				return ev, keys, fmt.Errorf("equilibrate: NaN breakpoint at %d (c=%g, a=%g, u=%g)", j, c, a, u)
			}
			if pos == 0 {
				pos = 0
			}
			keys = append(keys, sortx.Key{Bits: sortx.FloatBits(pos), Idx: int32(len(ev))})
			ev = append(ev, event{pos: pos, da: -a, dc: u - c})
		}
	}
	return ev, keys, nil
}

// save caches sk as the slot's sorted permutation, rebasing the batch's
// concatenated-array indices back to segment-local build indices.
func (st *State) save(sk []sortx.Key, base int32) {
	m := len(sk)
	if cap(st.perm) < m {
		st.perm = make([]int32, m)
	}
	st.perm = st.perm[:m]
	for k, e := range sk {
		st.perm[k] = e.Idx - base
	}
	st.nev = m
}

// sweep walks the sorted segments left to right. Before the first event
// every term sits at its lower bound: φ(λ) = Σl + e·λ. On each segment φ
// agrees with the linear function inter + slope·λ; because φ is monotone
// nondecreasing, the first segment whose right-endpoint value reaches the
// target contains the root. The per-segment test is division-free —
// slope·right + inter ≥ R, one multiply-add per segment — and the single
// division happens once, at the root segment, clamped into the segment to
// stay robust to rounding at the boundaries.
//
// ev is the batch's concatenated event array, into which sk's Idx values
// index directly; e and r are the subproblem's elastic slope and target,
// and lb = Σl. The returned extra op count is the sweep's contribution
// to the cost model (the segment index where the root landed).
func sweep(ev []event, sk []sortx.Key, e, r, lb float64, st *State) (lambda float64, extra int64, err error) {
	m := len(sk)
	slope := e
	inter := lb // φ(λ) = inter + slope·λ on the current segment
	prev := math.Inf(-1)
	for k := 0; k <= m; k++ {
		var cur event
		right := math.Inf(1)
		if k < m {
			cur = ev[sk[k].Idx]
			right = cur.pos
		}
		if slope > 0 {
			if v := slope*right + inter; v >= r {
				cand := (r - inter) / slope
				if cand < prev {
					cand = prev // rounding pushed the root left of the segment
				}
				if cand > right {
					cand = right // ...or right of it
				}
				if st != nil {
					st.LastSeg = k
				}
				return cand, int64(k), nil
			}
		} else if inter == r {
			// Flat segment exactly at the target (e.g. fixed total 0 with
			// no terms active yet, or all terms saturated at Σu = R): the
			// multiplier is any point of the segment; take a finite,
			// canonical endpoint.
			if st != nil {
				st.LastSeg = k
			}
			if !math.IsInf(right, 1) {
				return right, int64(k), nil
			}
			if !math.IsInf(prev, -1) {
				return prev, int64(k), nil
			}
			return 0, int64(k), nil
		}
		if k < m {
			slope += cur.da
			inter += cur.dc
			prev = right
		}
	}

	// No root. With E > 0 the final slope is positive so this cannot
	// happen; with E == 0 and finite bounds the target may sit just beyond
	// the reachable range by rounding — accept it at the last breakpoint if
	// it is within tolerance, otherwise the subproblem is infeasible.
	if e == 0 {
		if math.Abs(inter-r) <= 1e-9*(1+math.Abs(r)) {
			if st != nil {
				st.LastSeg = m
			}
			return prev, 0, nil
		}
		return 0, 0, ErrInfeasible
	}
	return 0, 0, fmt.Errorf("equilibrate: internal error: no root found (R=%g)", r)
}

// SolveBisection solves the same subproblem by bracketing-and-bisection on
// φ instead of the sort-and-sweep exact equilibration: O(n·log(range/tol))
// versus O(n·log n), with an answer accurate to tol rather than exact. It
// exists as the ablation partner for the paper's sorting-based kernel (the
// benchmark suite compares the two) and as an in-package independent
// reference.
func (p *Problem) SolveBisection(x []float64, tol float64) (Result, error) {
	n := len(p.C)
	if err := p.validate(x); err != nil {
		return Result{}, err
	}
	if tol <= 0 {
		tol = 1e-12
	}
	var ops int64
	lo, hi := -1.0, 1.0
	for i := 0; p.Phi(lo) > p.R; i++ {
		lo *= 2
		ops += int64(n)
		if i > 300 {
			return Result{}, ErrInfeasible
		}
	}
	for i := 0; p.Phi(hi) < p.R; i++ {
		hi *= 2
		ops += int64(n)
		if i > 300 {
			return Result{}, ErrInfeasible
		}
	}
	for hi-lo > tol*(1+math.Abs(lo)+math.Abs(hi)) {
		mid := (lo + hi) / 2
		if p.Phi(mid) < p.R {
			lo = mid
		} else {
			hi = mid
		}
		ops += int64(n)
	}
	lambda := (lo + hi) / 2
	var total float64
	for j := 0; j < n; j++ {
		v := p.clampVal(j, p.coef(j)+p.A[j]*lambda)
		x[j] = v
		total += v
	}
	return Result{Lambda: lambda, Total: total, Ops: ops + int64(2*n)}, nil
}

// Phi evaluates φ(λ) = Σ_j clamp(c_j + a_j λ, l_j, u_j) + e·λ. It is
// exported for verification and tests.
func (p *Problem) Phi(lambda float64) float64 {
	s := p.E * lambda
	for j := range p.C {
		s += p.clampVal(j, p.coef(j)+p.A[j]*lambda)
	}
	return s
}
