// Package sortx provides the breakpoint sorts of the exact equilibration
// kernel (internal/equilibrate).
//
// The paper implements exact equilibration with HEAPSORT for the large
// arrays arising in constrained matrix problems (hundreds to thousands of
// breakpoints per row/column subproblem) and with STRAIGHT INSERTION SORT
// for the short arrays (10–120 elements) of its Section 5. The kernel keeps
// straight insertion for short arrays and replaces heapsort with a stable
// LSD radix sort over compact keys: stability makes the canonical tie order
// free, and clustered inputs skip their constant byte planes. A budgeted
// insertion pass repairs the nearly sorted order a warm start replays.
package sortx

import "math"

// Key is a 16-byte sort element: a uint64 whose unsigned order is the sort
// order, plus the index of the payload it stands for. Sorting keys instead
// of fat payload structs halves the memory the sort moves, and a stable sort
// over keys built in index order yields the unique (Bits, Idx) canonical
// order with no tie repair at all.
type Key struct {
	Bits uint64
	Idx  int32
}

// FloatBits maps a float64 to a uint64 whose unsigned order matches the
// float's numeric order: negative floats have their bits inverted, positive
// ones get the sign bit set. NaN is excluded by contract (callers reject NaN
// keys before building), and -0 maps below +0 — callers that need ±0 to
// compare equal (float == semantics) must normalize -0 to +0 first.
func FloatBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// KeyLess is the strict (Bits, Idx) order on keys.
func KeyLess(a, b Key) bool {
	return a.Bits < b.Bits || (a.Bits == b.Bits && a.Idx < b.Idx)
}

// InsertionKeys sorts keys ascending under (Bits, Idx) by straight insertion
// sort — the right algorithm for short arrays, with no comparison-function
// indirection.
func InsertionKeys(keys []Key) {
	for i := 1; i < len(keys); i++ {
		v := keys[i]
		j := i - 1
		for j >= 0 && KeyLess(v, keys[j]) {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = v
	}
}

// nearlySortedBudget bounds the total element displacement
// InsertionBudgetKeys spends before abandoning the insertion pass: inputs
// within 4·len total inversion distance of sorted order finish in the
// linear pass; anything messier is handed back for an O(n log n) sort.
const nearlySortedBudget = 4

// InsertionBudgetKeys is the budgeted nearly-sorted insertion pass over keys,
// for the warm-start pattern of the equilibration kernel: a re-solve replays
// the previous solve's sorted order and only a handful of breakpoints have
// drifted past a neighbor. It sorts in place under (Bits, Idx) and reports
// whether the total displacement stayed within nearlySortedBudget·len, so an
// already-sorted input costs one comparison per element and a k-inversion
// input O(len + k). On false the slice is left partially ordered but still a
// permutation of the input, and the caller re-sorts from scratch.
func InsertionBudgetKeys(keys []Key) bool {
	budget := nearlySortedBudget * len(keys)
	for i := 1; i < len(keys); i++ {
		v := keys[i]
		j := i - 1
		for j >= 0 && KeyLess(v, keys[j]) {
			keys[j+1] = keys[j]
			j--
			if budget--; budget < 0 {
				keys[j+1] = v // reinsert: the slice must stay a permutation
				return false
			}
		}
		keys[j+1] = v
	}
	return true
}

// RadixKeysMask sorts keys ascending by Bits with a stable LSD radix sort,
// using scratch (which must be at least as long) as the ping-pong buffer.
// It returns the sorted slice, which aliases either keys or scratch.
//
// Stability is the point: with Idx assigned in input order, ties on Bits
// keep input order, so the result is the unique (Bits, Idx)-sorted array —
// tie-heavy inputs (breakpoint clusters) cost nothing extra, where a
// comparison sort under the full order loses its equal-element collapse.
//
// diff is the differing-byte mask, which the kernel folds while building
// keys, saving a pre-pass over data that has since left cache. It must
// cover the pairwise XORs of the keys' Bits (an OR of each key XOR any one
// fixed reference does, since k1^k2 = (k1^ref)^(k2^ref)); byte positions
// absent from it are constant across the input and their passes are
// skipped, so clustered inputs — values differing in a few low mantissa
// bytes — pay only those few counting passes. A superset mask only costs
// extra counting passes, never correctness. diff == 0 returns keys
// unchanged.
func RadixKeysMask(keys, scratch []Key, diff uint64) []Key {
	n := len(keys)
	if n < 2 || diff == 0 {
		return keys
	}
	// Collect the active byte planes, then fill every plane's histogram in
	// a single read pass: a byte histogram is permutation-invariant, so the
	// counts taken on the input array are valid for every later pass even
	// though the keys have moved between the buffers by then. Each radix
	// pass is thereby scatter-only — one stream over the keys instead of
	// the count+scatter two — which matters once the key array outgrows L1
	// (fused multi-subproblem batches; see internal/equilibrate.Batch).
	var shifts [8]uint
	np := 0
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff != 0 {
			shifts[np] = shift
			np++
		}
	}
	var counts [8][256]int32
	for i := range keys {
		b := keys[i].Bits
		for p := 0; p < np; p++ {
			counts[p][(b>>shifts[p])&0xff]++
		}
	}
	src, dst := keys[:n], scratch[:n]
	for p := 0; p < np; p++ {
		count := &counts[p]
		var sum int32
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		shift := shifts[p]
		for _, k := range src {
			b := (k.Bits >> shift) & 0xff
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	return src
}
