package core

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"sea/internal/parallel"
)

// benchDiagProblem builds a dense fixed-totals instance sized for the phase
// microbenchmarks.
func benchDiagProblem(b *testing.B, m, n int) *DiagonalProblem {
	b.Helper()
	rng := rand.New(rand.NewPCG(1, uint64(m)))
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = rng.Float64() * 100
		gamma[k] = 0.5 + rng.Float64()
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := 1.3 * x0[i*n+j]
			s0[i] += v
			d0[j] += v
		}
	}
	p, err := NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchPhaseState prepares a diagState mid-solve: one full iteration seeds
// the multipliers so the benchmarked phase sees steady-state inputs. With
// csr set the same problem runs Sparsify'd — a full CSR support, so the pair
// isolates the cost of the per-cell index gather against the dense direct
// path.
func benchPhaseState(b *testing.B, procs int, csr bool) *diagState {
	b.Helper()
	p := benchDiagProblem(b, 500, 500)
	if csr {
		var err error
		if p, err = p.Sparsify(); err != nil {
			b.Fatal(err)
		}
	}
	o := DefaultOptions()
	o.Procs = procs
	st := newDiagState(context.Background(), p, o.withDefaults())
	b.Cleanup(st.close)
	if err := st.rowPhase(); err != nil {
		b.Fatal(err)
	}
	if err := st.colPhase(); err != nil {
		b.Fatal(err)
	}
	return st
}

// The row/column phase pair isolates the tiling win: the column phase used
// to gather and scatter with stride n, and should now sit within a small
// factor of the row phase instead of far behind it. ReportAllocs guards the
// steady-state zero-allocation property. Each runs on dense and CSR storage.

func BenchmarkRowPhase(b *testing.B)         { benchPhase(b, 1, (*diagState).rowPhase) }
func BenchmarkRowPhaseParallel(b *testing.B) { benchPhase(b, runtime.NumCPU(), (*diagState).rowPhase) }

func BenchmarkColumnPhase(b *testing.B) { benchPhase(b, 1, (*diagState).colPhase) }
func BenchmarkColumnPhaseParallel(b *testing.B) {
	benchPhase(b, runtime.NumCPU(), (*diagState).colPhase)
}

func benchPhase(b *testing.B, procs int, phase func(*diagState) error) {
	for _, storage := range []string{"dense", "csr"} {
		b.Run(storage, func(b *testing.B) {
			st := benchPhaseState(b, procs, storage == "csr")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := phase(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArenaNoWarm is the kernel warm-start ablation: repeated
// same-shape solves through one arena and a caller-owned pool — the serving
// path — with the warm-started sorts on ("warm") and off through the
// disableWarmStart hook ("nowarm"). Arena reuse is common to both, so the
// gap is the warm start's own contribution.
func BenchmarkArenaNoWarm(b *testing.B) {
	p := benchDiagProblem(b, 500, 500)
	for _, mode := range []string{"warm", "nowarm"} {
		b.Run(mode, func(b *testing.B) {
			disableWarmStart = mode == "nowarm"
			defer func() { disableWarmStart = false }()
			pool := parallel.NewPool(1)
			defer pool.Close()
			ar := NewArena()
			defer ar.Close()
			o := DefaultOptions()
			o.Criterion = MaxAbsDelta
			o.Epsilon = 0.01
			o.Runner = pool
			o.Arena = ar
			// The first solve fills the arena and the warm-start slots.
			if _, err := SolveDiagonal(context.Background(), p, o); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveDiagonal(context.Background(), p, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
