package graphx

import (
	"math/rand/v2"
	"testing"
)

func TestBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("Count = %d, want 5", uf.Count())
	}
	if !uf.Union(0, 1) {
		t.Error("Union(0,1) should merge")
	}
	if uf.Union(1, 0) {
		t.Error("repeat Union should report already merged")
	}
	if !uf.Connected(0, 1) {
		t.Error("0 and 1 should be connected")
	}
	if uf.Connected(0, 2) {
		t.Error("0 and 2 should not be connected")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if !uf.Connected(1, 2) {
		t.Error("transitive connection failed")
	}
	if uf.Count() != 2 {
		t.Errorf("Count = %d, want 2", uf.Count())
	}
}

// TestComponents: unions 0–2–4 and 1–5 leave three components, {0,2,4},
// {1,5} and {3}.
func TestComponents(t *testing.T) {
	uf := NewUnionFind(6)
	uf.Union(0, 2)
	uf.Union(2, 4)
	uf.Union(1, 5)
	if uf.Count() != 3 {
		t.Fatalf("Count = %d, want 3", uf.Count())
	}
	if !uf.Connected(0, 4) || !uf.Connected(1, 5) {
		t.Error("members of one component are not connected")
	}
	if uf.Connected(0, 1) || uf.Connected(3, 0) || uf.Connected(3, 5) {
		t.Error("distinct components are connected")
	}
}

func TestRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 50
	uf := NewUnionFind(n)
	// Naive labels array.
	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	relabel := func(from, to int) {
		for i := range label {
			if label[i] == from {
				label[i] = to
			}
		}
	}
	for k := 0; k < 200; k++ {
		a, b := rng.IntN(n), rng.IntN(n)
		uf.Union(a, b)
		if label[a] != label[b] {
			relabel(label[a], label[b])
		}
		// Spot-check a random pair.
		x, y := rng.IntN(n), rng.IntN(n)
		if uf.Connected(x, y) != (label[x] == label[y]) {
			t.Fatalf("step %d: Connected(%d,%d) disagrees with naive", k, x, y)
		}
	}
	// Component count agreement.
	distinct := map[int]bool{}
	for _, l := range label {
		distinct[l] = true
	}
	if uf.Count() != len(distinct) {
		t.Errorf("Count = %d, naive says %d", uf.Count(), len(distinct))
	}
}
