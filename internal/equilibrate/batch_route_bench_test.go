package equilibrate

import (
	"math/rand/v2"
	"testing"

	"sea/internal/sortx"
)

// benchBatchRoutes builds a cold batch of segs subproblems of n breakpoints
// each in the key shape sh — shapeRandom spreads them, shapeCluster puts
// them at the Table-1 first-iteration ties −2 ± 1 ulp — and solves it, with
// the route thresholds forced by the caller. It times the sort and sweep:
// a spread segment's fixed total clamps some cells, and a cluster, whose
// fixed-total root would be interior, takes an elastic target left of every
// breakpoint (clampAll); a segment solved at its interior root fails the
// benchmark. It reports the radix byte passes per key that the segments'
// spans call for.
func benchBatchRoutes(b *testing.B, n, segs int, sh keyShape, insMax, radixMin int) {
	oldIns, oldMin := batchInsertionMax, segRadixMin
	batchInsertionMax, segRadixMin = insMax, radixMin
	defer func() { batchInsertionMax, segRadixMin = oldIns, oldMin }()

	rng := rand.New(rand.NewPCG(1, 2))
	ps := make([]Problem, segs)
	xs := make([][]float64, segs)
	for s := range ps {
		c := make([]float64, n)
		a := make([]float64, n)
		for j := range c {
			c[j] = rng.NormFloat64() * 100
			a[j] = 0.5 + rng.Float64()
		}
		ps[s] = Problem{C: c, A: a, R: float64(n) * 0.3, E: 0}
		sh.shape(rng, &ps[s])
		if sh == shapeCluster {
			clampAll(&ps[s])
		}
		xs[s] = make([]float64, n)
	}
	batch := NewBatch(n*segs + n)
	run := func() {
		batch.Reset()
		for s := range ps {
			if err := batch.Add(&ps[s], xs[s], nil); err != nil {
				b.Fatal(err)
			}
		}
		if idx, err := batch.Solve(); err != nil {
			b.Fatalf("seg %d: %v", idx, err)
		}
		for s := range ps {
			if batch.Interior(s) {
				b.Fatalf("seg %d: solved at its interior root, not sorted", s)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(spanPasses(batch), "passes/key")
}

// spanPasses is the mean radix byte passes per key of a solved cold batch,
// from the spans alone: (SpanBits+7)/8 for an exact span radix, TopBits/8
// for the top-bits radix (an over-budget repair's exact re-sort not
// counted), 0 for insertion. Fused segments take the union span.
func spanPasses(b *Batch) float64 {
	passes := func(lo, hi uint64) int {
		if bits := sortx.SpanBits(lo, hi); bits <= sortx.TopBits {
			return (bits + 7) / 8
		}
		return sortx.TopBits / 8
	}
	var lo, hi uint64 = 1<<64 - 1, 0
	fused, total, sum := 0, 0, 0
	for i := range b.segs {
		seg := &b.segs[i]
		m := int(seg.nev)
		total += m
		switch {
		case seg.done || m <= batchInsertionMax:
		case m >= segRadixMin:
			sum += m * passes(seg.lo, seg.hi)
		default:
			fused += m
			lo, hi = min(lo, seg.lo), max(hi, seg.hi)
		}
	}
	if fused > 0 {
		sum += fused * passes(lo, hi)
	}
	return float64(sum) / float64(max(total, 1))
}

func BenchmarkBatchRoute(b *testing.B) {
	families := []struct {
		name  string
		shape keyShape
	}{{"spread", shapeRandom}, {"clustered", shapeCluster}}
	for _, f := range families {
		for _, n := range []int{16, 24, 32, 40, 48, 64, 96, 128, 160, 192, 256, 384} {
			segs := 4096 / n
			pre := f.name + "/n=" + itoa(n)
			b.Run(pre+"/insertion", func(b *testing.B) { benchBatchRoutes(b, n, segs, f.shape, 1<<30, 1<<30) })
			b.Run(pre+"/fused", func(b *testing.B) { benchBatchRoutes(b, n, segs, f.shape, 0, 1<<30) })
			b.Run(pre+"/perseg", func(b *testing.B) { benchBatchRoutes(b, n, segs, f.shape, 0, 0) })
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
