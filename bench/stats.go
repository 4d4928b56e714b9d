package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a single outlier cannot be the
// reported tail.
const minBeyond = 10

// Percentiles are per-mille integers (900 = p90), which keeps the rank
// arithmetic exact.
var reportablePercentiles = []int{500, 900, 990, 999}

// rank returns the 1-based nearest rank of the pm-per-mille percentile among
// n samples.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond returns how many of n samples lie above the pm-per-mille percentile.
func beyond(n, pm int) int { return n - rank(n, pm) }

// tailPercentile returns the highest reportable percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) int {
	best := 0
	for _, pm := range reportablePercentiles {
		if beyond(n, pm) >= minBeyond {
			best = pm
		}
	}
	return best
}

// percentile returns the nearest-rank pm-per-mille percentile of ascending
// samples (NaN when there are none).
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), pm)-1]
}

// sortedCopy returns xs in ascending order without reordering xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 500) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0: a layer the workload never reaches
// reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
