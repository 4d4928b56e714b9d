package sortx

import (
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

// radixSort runs RadixKeysMask with the differing-byte mask folded here, as
// the kernel folds it while building keys.
func radixSort(keys []Key) []Key {
	var diff uint64
	for _, k := range keys {
		diff |= k.Bits ^ keys[0].Bits
	}
	return RadixKeysMask(keys, make([]Key, len(keys)), diff)
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
				t.Errorf("%s n=%d: RadixKeysMask diverges from comparison sort", name, n)
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
	if !InsertionBudgetKeys(keys) {
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
	if InsertionBudgetKeys(keys) {
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
