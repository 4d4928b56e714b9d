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
// When no term clamps at the root, φ is linear there — past every
// activation breakpoint and short of every saturation one — and the root is
// one division away, so the sort buys nothing. Every subproblem therefore
// first takes the root λ° of that all-interior line, summed in a fixed
// order of its own terms, and keeps it when every x_j = c_j + a_j·λ° lies
// in its box: two linear passes, no breakpoint, no sort. That decision and
// λ° depend on the subproblem's data alone, so they cannot make a result
// depend on a warm start or a sort route. The other subproblems
// sort and sweep. Its operation count is what the sort and sweep would
// charge, so counts do not depend on the path either.
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
// Kernel is the one entry into the exact solver: each call solves one
// subproblem, with scratch reused across calls. SolveBisection and Phi
// evaluate the same subproblem independently, as references for tests and
// ablations.
package equilibrate

import (
	"errors"
	"fmt"
	"math"

	"sea/internal/sortx"
)

// ErrInfeasible is returned when the subproblem has no feasible point:
// a fixed total that is negative, or that exceeds the sum of the upper
// bounds. It is also core.ErrInfeasible, so a solve that fails in the kernel
// matches the same sentinel as one whose validation finds an empty
// constraint set.
var ErrInfeasible = errors.New("infeasible")

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
	// sorted order. Kernel builds the next solve's keys in this order.
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
// recovery, φ, and interiorRoot's gather, which feeds the unbounded build —
// so they all see the same bits.
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
	// Interior reports that the subproblem was solved at its all-interior
	// root, with no sort.
	Interior bool
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
// lambda into x and returns its total. ev holds the block's activation
// events in build order, one per variable, whose dc and da are exactly c_j
// and a_j. A block that reaches it was not solved at its interior root, so
// some cells clamp at 0; which ones follows no pattern a branch predictor
// learns, so the loop selects each value through a mask.
func recoverUnbounded(x []float64, ev []event, lambda float64) float64 {
	var total float64
	for j, e := range ev[:len(x)] {
		v := clampZero(e.dc + e.da*lambda)
		x[j] = v
		total += v
	}
	return total
}

// clampZero returns v, or +0 where v < 0 — a branch's clamp bit for bit,
// −0 and NaN kept — selecting through a mask instead of a branch.
func clampZero(v float64) float64 {
	var keep uint64
	if !(v < 0) {
		keep = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & keep)
}

// interiorRoot tries the all-interior root of p: the root of the line
// lb + Σ(c_j − l_j) + (e + Σa_j)·λ that φ follows wherever no non-pinned
// term clamps. Both sums run in four lanes by a term's index among the
// non-pinned terms, combined as (s₀+s₁)+(s₂+s₃) — an order fixed by the
// data's shape alone, never by a State or a sort route. It then
// writes x_j = c_j + a_j·λ° term by term and gives up at the first term
// outside its box; a term it cannot vouch for (a_j ≤ 0, a NaN or infinite
// sum, a non-positive slope, a non-finite total) also gives up, leaving
// the sort-and-sweep to solve or reject the subproblem. On success x and
// total are bit for bit what the primal recovery writes at λ°, m is the
// subproblem's event count, and k the sweep's root segment: the number of
// activation breakpoints left of λ°, that is, of terms above their lower
// bound. x must not overlap p's slices.
//
// For an unbounded p it also returns c, the coefficients c_j: p.C itself
// without a gather, else x, into which it gathers them. Having given up, it
// leaves them there for the event build to read (buildUnbounded).
func (p *Problem) interiorRoot(x []float64, lb float64) (c []float64, lambda, total float64, k, m int, ok bool) {
	if p.L == nil && p.U == nil {
		var sc, sa float64
		if p.Other == nil {
			c = p.C[:len(x)]
			sc, sa = laneSums(c, p.A)
		} else {
			c = x
			sc, sa = p.gatherSums(x)
		}
		if lambda, ok = lineRoot(lb+sc, p.E+sa, p.R); !ok {
			return c, 0, 0, 0, 0, false
		}
		as, x := p.A[:len(c)], x[:len(c)]
		for j, cj := range c {
			a := as[j]
			v := cj + a*lambda
			if !InteriorTerm(v, a) {
				p.regather(x, j)
				return c, 0, 0, 0, 0, false
			}
			if v > 0 {
				k++
			}
			x[j] = v
			total += v
		}
		if !InteriorTotal(total) {
			p.regather(x, len(x))
			return c, 0, 0, 0, 0, false
		}
		return c, lambda, total, k, len(x), true
	}
	var sc, sa [4]float64
	var f int // free (non-pinned) terms so far: the lane index
	for j := range x {
		a := p.A[j]
		if !(a > 0) {
			return nil, 0, 0, 0, 0, false
		}
		l := p.lower(j)
		if p.pinned(j, l) {
			continue
		}
		c := p.coef(j)
		x[j] = c
		sc[f&3] += c - l
		sa[f&3] += a
		f++
		m++
		if p.U != nil && !math.IsInf(p.U[j], 1) {
			m++
		}
	}
	lambda, ok = lineRoot(lb+LaneSum(sc[0], sc[1], sc[2], sc[3]), p.E+LaneSum(sa[0], sa[1], sa[2], sa[3]), p.R)
	if !ok {
		return nil, 0, 0, 0, 0, false
	}
	for j := range x {
		l := p.lower(j)
		if p.pinned(j, l) {
			// What the primal recovery writes for a pinned term.
			v := p.clampVal(j, p.coef(j)+p.A[j]*lambda)
			x[j] = v
			total += v
			continue
		}
		v := x[j] + p.A[j]*lambda
		if !(v >= l) || p.U != nil && !(v <= p.U[j]) {
			return nil, 0, 0, 0, 0, false
		}
		if v > l {
			k++
		}
		x[j] = v
		total += v
	}
	if total-total != 0 {
		return nil, 0, 0, 0, 0, false
	}
	return nil, lambda, total, k, m, true
}

// regather gives the first j cells of x, which interiorRoot overwrote, back
// their coefficients c_j when x holds the gathered ones.
func (p *Problem) regather(x []float64, j int) {
	if p.Other != nil {
		for i := range x[:j] {
			x[i] = p.coef(i)
		}
	}
}

// pinned reports whether term j, with lower bound l, is pinned (u = l,
// finite): x_j ≡ l for every λ, so it adds no event and no slope.
func (p *Problem) pinned(j int, l float64) bool {
	return p.U != nil && p.U[j] == l && !math.IsInf(l, 0)
}

// gatherSums gathers the coefficients c_j of a p with a gather into x, by
// the expression coef uses, and returns laneSums(x, p.A) from the same
// pass.
func (p *Problem) gatherSums(x []float64) (sc, sa float64) {
	var c0, c1, c2, c3, a0, a1, a2, a3 float64
	n := len(x)
	cs, as, o := p.C[:n], p.A[:n], p.Other
	j := 0
	if p.Idx == nil {
		o = o[:n]
		for ; j < n-3; j += 4 {
			xw, cw, aw, ow := x[j:j+4:j+4], cs[j:j+4:j+4], as[j:j+4:j+4], o[j:j+4:j+4]
			v := cw[0] + aw[0]*ow[0]
			xw[0], c0, a0 = v, c0+v, a0+aw[0]
			v = cw[1] + aw[1]*ow[1]
			xw[1], c1, a1 = v, c1+v, a1+aw[1]
			v = cw[2] + aw[2]*ow[2]
			xw[2], c2, a2 = v, c2+v, a2+aw[2]
			v = cw[3] + aw[3]*ow[3]
			xw[3], c3, a3 = v, c3+v, a3+aw[3]
		}
	} else {
		ix := p.Idx[:n]
		for ; j < n-3; j += 4 {
			xw, cw, aw, iw := x[j:j+4:j+4], cs[j:j+4:j+4], as[j:j+4:j+4], ix[j:j+4:j+4]
			v := cw[0] + aw[0]*o[iw[0]]
			xw[0], c0, a0 = v, c0+v, a0+aw[0]
			v = cw[1] + aw[1]*o[iw[1]]
			xw[1], c1, a1 = v, c1+v, a1+aw[1]
			v = cw[2] + aw[2]*o[iw[2]]
			xw[2], c2, a2 = v, c2+v, a2+aw[2]
			v = cw[3] + aw[3]*o[iw[3]]
			xw[3], c3, a3 = v, c3+v, a3+aw[3]
		}
	}
	// The last n mod 4 terms fall in lanes 0, 1 and 2.
	for k := range x[j:] {
		v := p.coef(j + k)
		x[j+k] = v
		switch k {
		case 0:
			c0, a0 = c0+v, a0+as[j]
		case 1:
			c1, a1 = c1+v, a1+as[j+1]
		default:
			c2, a2 = c2+v, a2+as[j+2]
		}
	}
	return LaneSum(c0, c1, c2, c3), LaneSum(a0, a1, a2, a3)
}

// laneSums returns Σc_j and Σa_j in interiorRoot's four lanes: term j goes
// to lane j mod 4, and the lanes combine by LaneSum. One add chain is
// latency-bound; eight keep the adders busy.
func laneSums(c, a []float64) (sc, sa float64) {
	var c0, c1, c2, c3, a0, a1, a2, a3 float64
	a = a[:len(c)]
	j := 0
	for ; j < len(c)-3; j += 4 {
		w := c[j : j+4 : j+4]
		c0 += w[0]
		c1 += w[1]
		c2 += w[2]
		c3 += w[3]
		w = a[j : j+4 : j+4]
		a0 += w[0]
		a1 += w[1]
		a2 += w[2]
		a3 += w[3]
	}
	// The last len(c) mod 4 terms fall in lanes 0, 1 and 2.
	for k, x := range c[j:] {
		switch k {
		case 0:
			c0 += x
			a0 += a[j]
		case 1:
			c1 += x
			a1 += a[j+1]
		default:
			c2 += x
			a2 += a[j+2]
		}
	}
	return LaneSum(c0, c1, c2, c3), LaneSum(a0, a1, a2, a3)
}

// The interior attempt's line. A subproblem's sums Σ(c_j − l_j) and Σa_j
// run in four lanes each: a term goes to lane f mod 4, f its index among
// the subproblem's non-pinned terms (every term is free without bounds),
// and each lane adds its terms in index order from +0. A caller that sums
// the same lanes in the same order, combines them by LaneSum, and tests the
// root, each term and the total by UnboundedRoot, InteriorTerm and
// InteriorTotal takes the kernel's interior result bit for bit, and hands
// the kernel every subproblem the attempt would not solve.

// LaneSum combines four lanes as the interior attempt does:
// (s₀+s₁)+(s₂+s₃).
func LaneSum(s0, s1, s2, s3 float64) float64 { return (s0 + s1) + (s2 + s3) }

// UnboundedRoot returns the root λ° that Solve's interior attempt takes on
// a non-empty subproblem with no cell bounds, elastic slope e and target r,
// from its combined lane sums sc = Σc_j and sa = Σa_j. ok is false wherever
// Solve does not reach that root: it rejects a negative elastic slope and an
// infeasible fixed total before the attempt, and the attempt gives up on a
// non-positive slope or a non-finite root.
func UnboundedRoot(e, r, sc, sa float64) (lambda float64, ok bool) {
	var lb float64 // Σl_j: no cell bounds
	p := Problem{R: r, E: e}
	if p.checkSlope() != nil || p.feasible(lb) != nil {
		return 0, false
	}
	return lineRoot(lb+sc, e+sa, r)
}

// InteriorTerm reports whether a term with slope a and value v = c + a·λ°
// at the interior root lets an unbounded subproblem's attempt stand.
func InteriorTerm(v, a float64) bool { return v >= 0 && a > 0 }

// InteriorTotal reports whether the total Σv of the interior attempt's
// terms lets it stand: the attempt gives up on a non-finite total.
func InteriorTotal(total float64) bool { return total-total == 0 }

// InteriorOps is the operation count charged for a subproblem of n terms
// and m events solved at its interior root with seg terms above their lower
// bound: what the build, sort and sweep to root segment seg, and the primal
// recovery, would have been charged.
func InteriorOps(m, seg, n int) int64 {
	return int64(7*m) + sortCharge(m) + int64(seg) + int64(2*n)
}

// lineRoot returns the root of inter + slope·λ = r, when the slope is
// positive and the root finite.
func lineRoot(inter, slope, r float64) (float64, bool) {
	if !(slope > 0) {
		return 0, false
	}
	lambda := (r - inter) / slope
	return lambda, lambda-lambda == 0
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
// key's Idx is its event's index in the subproblem's event array. A
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

// buildUnbounded writes the events and keys of an unbounded subproblem
// with coefficients c and slopes a (L = U = nil, the hottest case) into ev
// and keys, one per term in build order, with key Idx j. c is the output
// block, into which interiorRoot gathered the coefficients.
func buildUnbounded(ev []event, keys []sortx.Key, c, a []float64) error {
	n := len(ev)
	c, a, keys = c[:n], a[:n], keys[:n]
	for j, cj := range c {
		e, bits, ok := activation(cj, a[j])
		if !ok {
			return termError(j, cj, a[j])
		}
		ev[j], keys[j] = e, sortx.Key{Bits: bits, Idx: int32(j)}
	}
	return nil
}

// buildUnboundedPerm is buildUnbounded for a warm start: it walks the terms
// in perm order (the previous solve's sorted build indices) and writes each
// key into slot at its position in perm, so the slot starts in the previous
// order with no separate gather pass. Events end up exactly as
// buildUnbounded writes them; the build-order keys are not written (a
// replay that needs them rebuilds them from the events, buildKeys). ok is
// false on a rejected term — possibly not the first in build order, so the
// caller rebuilds with buildUnbounded to report it. sorted reports whether
// the slot came out in strictly increasing key order, that is, already
// canonical: the replay then needs no repair pass.
func buildUnboundedPerm(ev []event, slot []sortx.Key, c, a []float64, perm []int32) (ok, sorted bool) {
	n := len(ev)
	c, a, slot, perm = c[:n], a[:n], slot[:n], perm[:n]
	// Build indices are non-negative, so this key precedes every real one.
	prev := sortx.Key{Idx: -1}
	sorted = true
	for k, j := range perm {
		e, bits, ok := activation(c[j], a[j])
		if !ok {
			return false, false
		}
		key := sortx.Key{Bits: bits, Idx: j}
		ev[j], slot[k] = e, key
		sorted = sorted && sortx.KeyLess(prev, key)
		prev = key
	}
	return true, sorted
}

// buildKeys writes the build-order keys of an unbounded subproblem's
// events, with key Idx j: the keys buildUnbounded writes, since each
// event's pos is its breakpoint with −0 already normalized.
func buildKeys(keys []sortx.Key, ev []event) {
	keys = keys[:len(ev)]
	for j, e := range ev {
		keys[j] = sortx.Key{Bits: sortx.FloatBits(e.pos), Idx: int32(j)}
	}
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
		if p.pinned(j, l) {
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

// save caches sk, a subproblem's canonical key order, as the slot's sorted
// permutation of build indices.
func (st *State) save(sk []sortx.Key) {
	m := len(sk)
	if cap(st.perm) < m {
		st.perm = make([]int32, m)
	}
	st.perm = st.perm[:m]
	for k, e := range sk {
		st.perm[k] = e.Idx
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
// ev is the subproblem's event array, into which sk's Idx values index
// directly; e and r are the subproblem's elastic slope and target,
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
