package core_test

import (
	"context"
	"runtime"
	"testing"

	"sea/internal/core"
	"sea/internal/problems"
)

// TestDenseColdSolveAllocBound: a cold 150×150 dense fixed-totals solve —
// the Table-1 shape at two iterations — allocates at most four m·n float64
// arrays plus 64 KB. The iterate, the slope table and the previous iterate
// of the MaxAbsDelta check take three; the worker's column tile and
// kernel buffers must fit in the rest, so no transposed copy of the problem
// or the iterate can come back unnoticed.
func TestDenseColdSolveAllocBound(t *testing.T) {
	const m, n = 150, 150
	p := problems.Table1(n, 1)
	o := core.DefaultOptions()
	o.Criterion, o.Epsilon = core.MaxAbsDelta, 0.01
	o.Procs = 1
	solve := func() {
		if _, err := core.SolveDiagonal(context.Background(), p, o); err != nil {
			t.Fatal(err)
		}
	}
	solve() // one-time runtime and package set-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(4*8*m*n + 64<<10); got > limit {
		t.Fatalf("cold %d×%d dense solve allocated %d bytes, want ≤ %d", m, n, got, limit)
	}
	t.Logf("cold %d×%d dense solve allocated %d bytes", m, n, got)
}
