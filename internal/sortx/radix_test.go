package sortx

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func keyCmp(a, b Key) int {
	switch {
	case a.Bits < b.Bits:
		return -1
	case a.Bits > b.Bits:
		return 1
	case a.Idx < b.Idx:
		return -1
	case a.Idx > b.Idx:
		return 1
	default:
		return 0
	}
}

func TestFloatBitsOrder(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2, -1, -1e-300,
		-math.SmallestNonzeroFloat64, 0, math.SmallestNonzeroFloat64,
		1e-300, 1, 2, 1e300, math.MaxFloat64, math.Inf(1),
	}
	for i := 1; i < len(vals); i++ {
		if FloatBits(vals[i-1]) >= FloatBits(vals[i]) {
			t.Errorf("FloatBits(%g) = %#x not below FloatBits(%g) = %#x",
				vals[i-1], FloatBits(vals[i-1]), vals[i], FloatBits(vals[i]))
		}
	}
	if FloatBits(math.Copysign(0, -1)) >= FloatBits(0) {
		t.Error("FloatBits(-0) should order below FloatBits(+0)")
	}
}

// keysFrom builds keys from positions in input order, the way the
// equilibration kernel does.
func keysFrom(pos []float64) []Key {
	keys := make([]Key, len(pos))
	for i, p := range pos {
		keys[i] = Key{Bits: FloatBits(p), Idx: int32(i)}
	}
	return keys
}

// span returns the minimum and maximum Bits of keys, as the kernel keeps
// them while building keys.
func span(keys []Key) (lo, hi uint64) {
	if len(keys) == 0 {
		return 0, 0
	}
	lo, hi = keys[0].Bits, keys[0].Bits
	for _, k := range keys {
		lo, hi = min(lo, k.Bits), max(hi, k.Bits)
	}
	return lo, hi
}

// radixSort runs RadixKeysRange over the keys' own span.
func radixSort(keys []Key) []Key {
	lo, hi := span(keys)
	return RadixKeysRange(keys, make([]Key, len(keys)), lo, hi)
}

// topRepairSort is the kernel's wide-span route: RadixKeysTop, then the
// budgeted insertion repair, then the exact sort from the untouched input
// when the repair runs over budget.
func topRepairSort(keys []Key) []Key {
	lo, hi := span(keys)
	dst := make([]Key, len(keys))
	RadixKeysTop(dst, keys, make([]Key, len(keys)), lo, hi)
	if ok, _ := InsertionBudgetKeys(dst); ok {
		return dst
	}
	return RadixKeysRange(keys, dst, lo, hi)
}

func TestRadixKeysMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	gens := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64() * 1e4
			}
			return xs
		},
		"clustered": func(n int) []float64 {
			// A few ulp-separated values: the tie-heavy regime of the
			// equilibration kernel's first iteration.
			base := -2.0
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = base + float64(rng.IntN(3))*math.SmallestNonzeroFloat64*1e280
			}
			return xs
		},
		"allEqual": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 3.25
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 129, 500, 4096} {
			keys := keysFrom(gen(n))
			want := slices.Clone(keys)
			slices.SortFunc(want, keyCmp)
			got := radixSort(slices.Clone(keys))
			if !slices.Equal(got, want) {
				t.Errorf("%s n=%d: RadixKeysRange diverges from comparison sort", name, n)
			}
		}
	}
}

func TestRadixKeysStable(t *testing.T) {
	// Many duplicates: stability must keep build (Idx) order within ties.
	rng := rand.New(rand.NewPCG(3, 5))
	pos := make([]float64, 1000)
	for i := range pos {
		pos[i] = float64(rng.IntN(7))
	}
	got := radixSort(keysFrom(pos))
	for i := 1; i < len(got); i++ {
		if got[i-1].Bits == got[i].Bits && got[i-1].Idx >= got[i].Idx {
			t.Fatalf("tie at %d not in build order: idx %d before %d", i, got[i-1].Idx, got[i].Idx)
		}
		if got[i-1].Bits > got[i].Bits {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestInsertionKeys(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, n := range []int{0, 1, 2, 50, 128} {
		pos := make([]float64, n)
		for i := range pos {
			pos[i] = float64(rng.IntN(5))
		}
		keys := keysFrom(pos)
		want := slices.Clone(keys)
		slices.SortFunc(want, keyCmp)
		InsertionKeys(keys)
		if !slices.Equal(keys, want) {
			t.Errorf("n=%d: InsertionKeys diverges from comparison sort", n)
		}
	}
}

func TestInsertionBudgetKeys(t *testing.T) {
	// Nearly sorted input: must succeed and fully sort.
	keys := keysFrom([]float64{1, 2, 3, 5, 4, 6, 7, 9, 8, 10})
	if ok, _ := InsertionBudgetKeys(keys); !ok {
		t.Fatal("nearly-sorted input should fit the budget")
	}
	for i := 1; i < len(keys); i++ {
		if !KeyLess(keys[i-1], keys[i]) {
			t.Fatalf("not sorted at %d", i)
		}
	}

	// Reversed input: must abort, leaving a permutation of the input.
	rev := make([]float64, 200)
	for i := range rev {
		rev[i] = float64(len(rev) - i)
	}
	keys = keysFrom(rev)
	if ok, _ := InsertionBudgetKeys(keys); ok {
		t.Fatal("reversed input should exhaust the budget")
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		if seen[k.Idx] {
			t.Fatalf("idx %d duplicated after aborted pass", k.Idx)
		}
		seen[k.Idx] = true
	}
}

// TestInsertionBudgetKeysMoved: the moved flag is false exactly when the
// input was already in (Bits, Idx) order, which is when the pass leaves the
// slice untouched — sorted inputs of every length, with ties broken by Idx,
// against random shuffles that may or may not happen to come out sorted,
// single adjacent swaps and tie pairs out of Idx order.
func TestInsertionBudgetKeysMoved(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	check := func(name string, keys []Key) {
		t.Helper()
		in := slices.Clone(keys)
		ok, moved := InsertionBudgetKeys(keys)
		sorted := slices.IsSortedFunc(in, keyCmp)
		if moved == sorted {
			t.Fatalf("%s: moved = %v on input sorted = %v (%v)", name, moved, sorted, in)
		}
		if !moved && !slices.Equal(keys, in) {
			t.Fatalf("%s: moved = false but the slice changed", name)
		}
		if ok && !slices.IsSortedFunc(keys, keyCmp) {
			t.Fatalf("%s: ok but unsorted", name)
		}
	}
	for n := 0; n <= 40; n++ {
		pos := make([]float64, n)
		for i := range pos {
			pos[i] = float64(rng.IntN(6)) // many ties
		}
		keys := keysFrom(pos)
		slices.SortFunc(keys, keyCmp)
		check("sorted", slices.Clone(keys))
		if n >= 2 {
			i := rng.IntN(n - 1)
			swapped := slices.Clone(keys)
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
			check("adjacent swap", swapped)
		}
		for trial := 0; trial < 5; trial++ {
			shuffled := slices.Clone(keys)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			check("shuffled", shuffled)
		}
	}
	check("tie out of Idx order", []Key{{Bits: 5, Idx: 1}, {Bits: 5, Idx: 0}})
}

// bitsKeys builds keys from raw Bits in input order.
func bitsKeys(bs ...uint64) []Key {
	keys := make([]Key, len(bs))
	for i, b := range bs {
		keys[i] = Key{Bits: b, Idx: int32(i)}
	}
	return keys
}

// TestRadixKeysRangeEdges checks the span radix against a stable comparison
// sort at the edges of its span arithmetic: no span, one key, the full
// uint64 range (eight passes), infinities, and clusters straddling a binade
// boundary, whose keys differ in most bits but span a few.
func TestRadixKeysRangeEdges(t *testing.T) {
	lowest := math.Nextafter(-2, math.Inf(-1))
	cases := []struct {
		name   string
		keys   []Key
		passes int
	}{
		{"span0", keysFrom([]float64{7, 7, 7, 7}), 0},
		{"n1", keysFrom([]float64{-3}), 0},
		{"full-range", bitsKeys(math.MaxUint64, 5, 0, 1<<63, 0, math.MaxUint64, 1<<56), 8},
		{"inf", keysFrom([]float64{math.Inf(1), 0, math.Inf(-1), -1, math.Inf(1), 1, math.Inf(-1)}), 8},
		{"straddle-minus2", keysFrom([]float64{-2, math.Nextafter(-2, 0), lowest, -2, lowest, math.Nextafter(-2, 0)}), 1},
		{"straddle-1", keysFrom([]float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1, math.Nextafter(1, 0)}), 1},
		{"straddle-zero", keysFrom([]float64{0, math.SmallestNonzeroFloat64, math.Copysign(0, -1), -math.SmallestNonzeroFloat64, 0}), 1},
	}
	for _, tc := range cases {
		lo, hi := span(tc.keys)
		if tc.name == "full-range" {
			lo, hi = 0, math.MaxUint64
		}
		if got := (SpanBits(lo, hi) + 7) / 8; got != tc.passes && len(tc.keys) > 1 {
			t.Errorf("%s: span %d..%d takes %d passes, want %d", tc.name, lo, hi, got, tc.passes)
		}
		want := canonical(tc.keys)
		got := RadixKeysRange(slices.Clone(tc.keys), make([]Key, len(tc.keys)), lo, hi)
		if !slices.Equal(got, want) {
			t.Errorf("%s: RadixKeysRange = %v, want %v", tc.name, got, want)
		}
		if got := topRepairSort(slices.Clone(tc.keys)); !slices.Equal(got, want) {
			t.Errorf("%s: top-bits radix + repair = %v, want %v", tc.name, got, want)
		}
	}
}

// TestRadixKeysTopLeavesSource checks the top-bits radix's contract: src is
// untouched, dst holds src ordered by the top TopBits bits of the span,
// stable within a bucket, and spans of at most TopBits bits come out exact.
func TestRadixKeysTopLeavesSource(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 23))
	for _, spread := range []float64{1e-12, 1, 1e6} {
		xs := make([]float64, 700)
		for i := range xs {
			xs[i] = 3 + rng.NormFloat64()*spread
		}
		src := keysFrom(xs)
		orig := slices.Clone(src)
		lo, hi := span(src)
		dst := make([]Key, len(src))
		RadixKeysTop(dst, src, make([]Key, len(src)), lo, hi)
		if !slices.Equal(src, orig) {
			t.Fatalf("spread %g: RadixKeysTop modified src", spread)
		}
		shift := max(SpanBits(lo, hi)-TopBits, 0)
		bucket := func(k Key) uint64 { return (k.Bits - lo) >> shift }
		for i := 1; i < len(dst); i++ {
			a, b := dst[i-1], dst[i]
			if bucket(a) > bucket(b) || (bucket(a) == bucket(b) && a.Idx > b.Idx) {
				t.Fatalf("spread %g: dst[%d..%d] out of (bucket, Idx) order", spread, i-1, i)
			}
		}
		if SpanBits(lo, hi) <= TopBits && !slices.Equal(dst, canonical(src)) {
			t.Fatalf("spread %g: %d-bit span not sorted exactly", spread, SpanBits(lo, hi))
		}
		// dst may alias src.
		RadixKeysTop(src, src, make([]Key, len(src)), lo, hi)
		if !slices.Equal(src, dst) {
			t.Fatalf("spread %g: aliased RadixKeysTop differs", spread)
		}
	}
}

// FuzzSortKeys is differential: the span radix, and the top-bits radix with
// its repair, must land the order of slices.SortStableFunc over (Bits, Idx)
// for any keys, including NaN bit patterns and bounds looser than the keys.
// Each 8-byte chunk of the input is one key's Bits; slack widens the bounds.
func FuzzSortKeys(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x40\xff\xff\xff\xff\xff\xff\xff\x3f\xfe\xff\xff\xff\xff\xff\xff\x3f"), uint64(0))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x80"), uint64(3))
	f.Add(bytes.Repeat([]byte("\x01\x02\x03\x04\x05\x06\x07\x08"), 300), uint64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, slack uint64) {
		keys := make([]Key, len(data)/8)
		for i := range keys {
			keys[i] = Key{Bits: binary.LittleEndian.Uint64(data[8*i:]), Idx: int32(i)}
		}
		want := canonical(keys)
		lo, hi := span(keys)
		lo -= min(lo, slack)
		hi += min(math.MaxUint64-hi, slack)
		got := RadixKeysRange(slices.Clone(keys), make([]Key, len(keys)), lo, hi)
		if !slices.Equal(got, want) {
			t.Fatalf("RadixKeysRange over [%#x, %#x] = %v, want %v", lo, hi, got, want)
		}
		src := slices.Clone(keys)
		dst := make([]Key, len(keys))
		RadixKeysTop(dst, src, make([]Key, len(keys)), lo, hi)
		if !slices.Equal(src, keys) {
			t.Fatal("RadixKeysTop modified src")
		}
		if ok, _ := InsertionBudgetKeys(dst); !ok {
			dst = RadixKeysRange(src, dst, lo, hi)
		}
		if !slices.Equal(dst, want) {
			t.Fatalf("top-bits radix + repair over [%#x, %#x] = %v, want %v", lo, hi, dst, want)
		}
	})
}
