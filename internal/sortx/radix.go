// Package sortx provides the breakpoint sorts of the exact equilibration
// kernel (internal/equilibrate).
//
// The paper implements exact equilibration with HEAPSORT for the large
// arrays arising in constrained matrix problems (hundreds to thousands of
// breakpoints per row/column subproblem) and with STRAIGHT INSERTION SORT
// for the short arrays (10–120 elements) of its Section 5. The kernel keeps
// straight insertion for short arrays and replaces heapsort with a stable
// LSD radix sort over compact keys: stability makes the canonical tie order
// free, and the sort passes only over the bytes that the keys' span
// (maximum − minimum) covers, so a tight cluster sorts in one pass. Keys
// spread wider than TopBits bits are ordered by their top TopBits bits, and
// the budgeted insertion pass — the same one that repairs the nearly sorted
// order a warm start replays — finishes the exact order.
package sortx

import (
	"math"
	"math/bits"
)

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
// input O(len + k). On !ok the slice is left partially ordered but still a
// permutation of the input, and the caller re-sorts from scratch. moved
// reports whether any key changed position: it is false exactly when the
// input was already sorted and the slice is untouched, so a caller that
// caches the order can skip rewriting it.
func InsertionBudgetKeys(keys []Key) (ok, moved bool) {
	budget := nearlySortedBudget * len(keys)
	for i := 1; i < len(keys); i++ {
		v := keys[i]
		j := i - 1
		for j >= 0 && KeyLess(v, keys[j]) {
			keys[j+1] = keys[j]
			j--
			if budget--; budget < 0 {
				keys[j+1] = v // reinsert: the slice must stay a permutation
				return false, true
			}
		}
		if j != i-1 {
			keys[j+1] = v
			moved = true
		}
	}
	return true, moved
}

// TopBits is the width of the top-of-span radix: RadixKeysTop orders keys
// by the TopBits most significant bits of their span in TopBits/8 byte
// passes. Callers sort spans of at most TopBits bits exactly with
// RadixKeysRange and wider ones with RadixKeysTop plus an insertion repair.
const TopBits = 16

// SpanBits returns the number of significant bits of hi − lo, the span of
// keys whose Bits lie in [lo, hi]. RadixKeysRange makes (SpanBits+7)/8 byte
// passes over such keys.
func SpanBits(lo, hi uint64) int { return bits.Len64(hi - lo) }

// RadixKeysRange sorts keys ascending by Bits with a stable LSD radix sort,
// using scratch (which must be at least as long) as the ping-pong buffer.
// It returns the sorted slice, which aliases either keys or scratch.
//
// Stability is the point: with Idx assigned in input order, ties on Bits
// keep input order, so the result is the unique (Bits, Idx)-sorted array —
// tie-heavy inputs (breakpoint clusters) cost nothing extra, where a
// comparison sort under the full order loses its equal-element collapse.
//
// lo and hi must bound every key's Bits; the kernel keeps them while
// building keys, saving a pre-pass over data that has since left cache.
// The sort keys on Bits − lo and makes one pass per byte that the span
// hi − lo covers, so a cluster of consecutive keys costs one pass however
// many high bits its members differ in (−2 ± 1 ulp straddles an exponent
// boundary: its keys differ in 63 bits but span 2). Looser bounds only cost
// extra passes, never correctness. A span of 0 returns keys unchanged.
func RadixKeysRange(keys, scratch []Key, lo, hi uint64) []Key {
	n := len(keys)
	np := (SpanBits(lo, hi) + 7) / 8
	if n < 2 || np == 0 {
		return keys
	}
	// Only the active planes' histograms are cleared: a one-pass sort of a
	// 150-key segment would otherwise zero 8 KB of counts to move 2.4 KB of
	// keys.
	switch np {
	case 1:
		var counts [1][256]int32
		return radix(keys, scratch[:n], keys, counts[:], lo, 0)
	case 2:
		var counts [2][256]int32
		return radix(keys, scratch[:n], keys, counts[:], lo, 0)
	default:
		var counts [8][256]int32
		return radix(keys, scratch[:n], keys, counts[:np], lo, 0)
	}
}

// RadixKeysTop writes src into dst ordered by the top TopBits bits of
// Bits − lo within the span hi − lo, stable in src order, in TopBits/8 byte
// passes through scratch. src is left untouched (dst may alias it), so a
// caller whose repair of the remaining disorder fails can still sort src
// exactly. Keys sharing a top bucket keep src order, which after a stable
// build is Idx order: InsertionBudgetKeys finishes the (Bits, Idx) order in
// about one comparison per key when the keys spread across buckets, and
// gives up when many share one. Spans of at most TopBits bits are sorted
// exactly.
func RadixKeysTop(dst, src, scratch []Key, lo, hi uint64) {
	n := len(src)
	shift := max(SpanBits(lo, hi)-TopBits, 0)
	var counts [TopBits / 8][256]int32
	radix(src, scratch[:n], dst[:n], counts[:], lo, uint(shift))
}

// radix is the shared LSD core: one byte pass per histogram in counts, over
// (Bits − lo) >> shift, reading src, writing the first pass to a and then
// alternating b, a, ... It returns the last slice written (src when counts
// is empty). a must not alias src or b; b may alias src.
//
// Every plane's histogram is filled in a single read pass: a byte histogram
// is permutation-invariant, so the counts taken on src are valid for every
// later pass even though the keys have moved between the buffers by then.
// Each radix pass is thereby scatter-only — one stream over the keys
// instead of the count+scatter two — which matters once the key array
// outgrows L1.
func radix(src, a, b []Key, counts [][256]int32, lo uint64, shift uint) []Key {
	for _, k := range src {
		d := (k.Bits - lo) >> shift
		for p := range counts {
			counts[p][byte(d>>(8*p))]++
		}
	}
	in, out, next := src, a, b
	for p := range counts {
		scatter(out, in, &counts[p], lo, shift+uint(8*p))
		in, out, next = out, next, out
	}
	return in
}

// scatter is one stable counting pass: it writes src into dst ordered by
// byte (Bits − lo) >> s, turning count, the byte's histogram, into bucket
// cursors first.
func scatter(dst, src []Key, count *[256]int32, lo uint64, s uint) {
	var sum int32
	for i, c := range count {
		count[i] = sum
		sum += c
	}
	for _, k := range src {
		d := byte((k.Bits - lo) >> (s & 63))
		dst[count[d]] = k
		count[d]++
	}
}
