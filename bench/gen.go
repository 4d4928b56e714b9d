package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"sea/internal/matio"
	"sea/pkg/sea"
)

// The benchmark generates every input itself, from the run's seed; the
// program only receives them. Each generator reproduces a construction the
// paper's experiments use.

// newRNG returns the generator for one input stream of a run. Distinct
// streams of the same seed are independent.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// jitter scales v by a factor drawn uniformly from [1−rel, 1+rel].
func jitter(rng *rand.Rand, v, rel float64) float64 {
	return v * (1 + rel*(2*rng.Float64()-1))
}

// table1 builds a Table-1 fixed-totals problem: an n×n prior uniform in
// [.1, 10000], γ = 1/x⁰, and every row and column total twice the
// corresponding prior sum.
func table1(n int, rng *rand.Rand) *sea.DiagonalProblem {
	x0 := make([]float64, n*n)
	gamma := make([]float64, n*n)
	for k := range x0 {
		x0[k] = 0.1 + rng.Float64()*9999.9
		gamma[k] = 1 / x0[k]
	}
	s0 := make([]float64, n)
	d0 := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s0[i] += 2 * x0[i*n+j]
			d0[j] += 2 * x0[i*n+j]
		}
	}
	return &sea.DiagonalProblem{M: n, N: n, X0: x0, Gamma: gamma, S0: s0, D0: d0, Kind: sea.FixedTotals}
}

// Iteration counts of the balanced and elastic families swing by a factor of
// two or more between independent random instances, which would make the
// seed, not the program, dominate their timings. Their generators therefore
// draw a base instance from a fixed stream and let the run's seed change it
// without changing how hard it is to solve.
const baseSeed = 7

// bandSAM builds an n-account balanced SAM estimation problem whose
// transactions lie on a cyclic band of the given width. Off-band cells are
// pinned at zero by an upper bound of 0, so sea.NewDiagonal stores the
// problem as CSR over the band. Priors are uniform in [.1, 1000], γ = 1/x⁰,
// account totals within ±10% of the inconsistent prior row/column sums, and
// α = 1/s⁰. The seed renumbers the accounts: account i of the base instance
// becomes account perm[i], in its row and its column alike. That is the same
// problem to the splitting algorithm, whose row and column phases treat each
// account on its own, so every seed takes the base instance's iterations
// while every row, column and stored cell moves.
func bandSAM(n, band int, rng *rand.Rand) *sea.DiagonalProblem {
	base := newRNG(baseSeed, 6)
	perm := rng.Perm(n)
	x0 := make([]float64, n*n)
	gamma := make([]float64, n*n)
	upper := make([]float64, n*n)
	rowSum := make([]float64, n)
	colSum := make([]float64, n)
	for k := range gamma {
		gamma[k] = 1
	}
	for i := 0; i < n; i++ {
		for d := 0; d < band; d++ {
			j := (i + d) % n
			k := perm[i]*n + perm[j]
			x0[k] = 0.1 + base.Float64()*999.9
			gamma[k] = 1 / x0[k]
			upper[k] = math.Inf(1)
			rowSum[i] += x0[k]
			colSum[j] += x0[k]
		}
	}
	s0 := make([]float64, n)
	alpha := make([]float64, n)
	for i := range s0 {
		v := (rowSum[i] + colSum[i]) / 2 * (0.9 + 0.2*base.Float64())
		s0[perm[i]], alpha[perm[i]] = v, 1/v
	}
	return &sea.DiagonalProblem{M: n, N: n, X0: x0, Gamma: gamma, S0: s0, Alpha: alpha, Upper: upper, Kind: sea.Balanced}
}

// jitterRel is how far the seed moves each number of the elastic base
// instance.
const jitterRel = 0.01

// speElastic builds the elastic problem isomorphic to an m×n spatial price
// equilibrium of the paper's Table 5 (linear supply price P + R·s, demand
// price Q − W·d, transport cost C + H·x): α = R/2, s⁰ = −P/R, β = W/2,
// d⁰ = Q/W, γ = H/2, x⁰ = −C/H.
func speElastic(m, n int, rng *rand.Rand) *sea.DiagonalProblem {
	base := newRNG(baseSeed, 0x5EA)
	draw := func(lo, width float64) float64 { return jitter(rng, lo+base.Float64()*width, jitterRel) }
	s0, alpha := make([]float64, m), make([]float64, m)
	for i := range s0 {
		p, r := draw(10, 20), draw(0.3, 0.7)
		alpha[i], s0[i] = r/2, -p/r
	}
	d0, beta := make([]float64, n), make([]float64, n)
	for j := range d0 {
		q, w := draw(150, 150), draw(0.3, 0.7)
		beta[j], d0[j] = w/2, q/w
	}
	x0, gamma := make([]float64, m*n), make([]float64, m*n)
	for k := range x0 {
		c, h := draw(1, 24), draw(0.3, 1.2)
		gamma[k], x0[k] = h/2, -c/h
	}
	return &sea.DiagonalProblem{M: m, N: n, X0: x0, Gamma: gamma, S0: s0, Alpha: alpha, D0: d0, Beta: beta, Kind: sea.ElasticTotals}
}

// temporal builds a drifting sequence of m×n fixed-totals periods: a base
// prior uniform in [1, 11], per-row and per-column growth factors drawn once
// for the sequence, and period p's cells moved by drift·p·U[.5, 1.5] from the
// base. Targets are the grown prior sums, rebalanced to a common mass.
func temporal(m, n, periods int, drift float64, rng *rand.Rand) []*sea.DiagonalProblem {
	base := make([]float64, m*n)
	for k := range base {
		base[k] = 1 + rng.Float64()*10
	}
	rowGrowth, colGrowth := make([]float64, m), make([]float64, n)
	for i := range rowGrowth {
		rowGrowth[i] = 1.05 + 0.4*rng.Float64()
	}
	for j := range colGrowth {
		colGrowth[j] = 1.05 + 0.4*rng.Float64()
	}
	out := make([]*sea.DiagonalProblem, periods)
	for p := range out {
		x0, gamma := make([]float64, m*n), make([]float64, m*n)
		s0, d0 := make([]float64, m), make([]float64, n)
		for k := range x0 {
			x0[k] = base[k] * (1 + drift*float64(p)*(0.5+rng.Float64()))
			gamma[k] = 1 / x0[k]
		}
		var totS, totD float64
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s0[i] += rowGrowth[i] * x0[i*n+j]
				d0[j] += colGrowth[j] * x0[i*n+j]
			}
			totS += s0[i]
		}
		for _, v := range d0 {
			totD += v
		}
		for j := range d0 {
			d0[j] *= totS / totD
		}
		out[p] = &sea.DiagonalProblem{M: m, N: n, X0: x0, Gamma: gamma, S0: s0, D0: d0, Kind: sea.FixedTotals}
	}
	return out
}

// encodeProblem renders a problem as a compact POST /v1/solve request body.
func encodeProblem(d *sea.DiagonalProblem) ([]byte, error) {
	body, err := json.Marshal(matio.FromCore(d))
	if err != nil {
		return nil, fmt.Errorf("encode %d×%d problem: %w", d.M, d.N, err)
	}
	return body, nil
}
