// Package graphx provides the small graph substrate the paper's Modified
// Algorithm needs: union-find over the bipartite support graph of an
// iterate, whose connected components are the sets within which row and
// column multipliers may be shifted by a constant without changing the dual
// value (paper, end of Section 3.1).
package graphx

// UnionFind is a disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int
	rank   []uint8
	count  int
}

// NewUnionFind returns a forest of n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]uint8, n),
		count:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether they were
// previously distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Connected reports whether x and y are in the same set.
func (uf *UnionFind) Connected(x, y int) bool { return uf.Find(x) == uf.Find(y) }

// Count returns the number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }
