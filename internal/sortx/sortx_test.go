package sortx

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// sorters are the kernel's cold sorts: each must land the unique
// (Bits, Idx) order.
var sorters = map[string]func([]Key) []Key{
	"InsertionKeys":  func(keys []Key) []Key { InsertionKeys(keys); return keys },
	"RadixKeysRange": radixSort,
	"RadixKeysTop":   topRepairSort,
}

// canonical returns keys in (Bits, Idx) order by a stable comparison sort.
func canonical(keys []Key) []Key {
	want := slices.Clone(keys)
	slices.SortStableFunc(want, keyCmp)
	return want
}

func randomSlice(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 1e4
	}
	return xs
}

func TestInsertion(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 2, 3, 7, 10, 100, 127, 128, 129, 500, 4096} {
		keys := keysFrom(randomSlice(rng, n))
		want := canonical(keys)
		InsertionKeys(keys)
		if !slices.Equal(keys, want) {
			t.Errorf("size %d: not sorted correctly", n)
		}
	}
}

func TestAlreadySorted(t *testing.T) {
	keys := keysFrom([]float64{-3, -1, 0, 0, 2, 5, 9})
	for name, sort := range sorters {
		if got := sort(slices.Clone(keys)); !slices.Equal(got, keys) {
			t.Errorf("%s: sorted input permuted: %v", name, got)
		}
	}
}

func TestReverseSorted(t *testing.T) {
	keys := keysFrom([]float64{9, 5, 2, 0, 0, -1, -3})
	want := canonical(keys)
	for name, sort := range sorters {
		if got := sort(slices.Clone(keys)); !slices.Equal(got, want) {
			t.Errorf("%s: reverse input not sorted: %v", name, got)
		}
	}
}

func TestDuplicates(t *testing.T) {
	xs := make([]float64, 300)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := range xs {
		xs[i] = float64(rng.IntN(5))
	}
	keys := keysFrom(xs)
	want := canonical(keys)
	for name, sort := range sorters {
		if got := sort(slices.Clone(keys)); !slices.Equal(got, want) {
			t.Errorf("%s: duplicates mishandled", name)
		}
	}
}

// sortsProperty reports whether sort lands the canonical order on keys built
// from xs. NaN is excluded by contract: the kernel rejects NaN breakpoints.
func sortsProperty(sort func([]Key) []Key) func([]float64) bool {
	return func(xs []float64) bool {
		for _, v := range xs {
			if v != v {
				return true
			}
		}
		keys := keysFrom(xs)
		return slices.Equal(sort(slices.Clone(keys)), canonical(keys))
	}
}

// TestInsertionSortsProperty is a property-based test: InsertionKeys always
// produces the canonical permutation of its input.
func TestInsertionSortsProperty(t *testing.T) {
	if err := quick.Check(sortsProperty(sorters["InsertionKeys"]), nil); err != nil {
		t.Error(err)
	}
}

// TestRadixSortsProperty mirrors TestInsertionSortsProperty for the radix
// sorts: the exact span radix, and the top-bits radix with its repair.
func TestRadixSortsProperty(t *testing.T) {
	for _, sort := range []func([]Key) []Key{radixSort, topRepairSort} {
		if err := quick.Check(sortsProperty(sort), nil); err != nil {
			t.Error(err)
		}
	}
}
