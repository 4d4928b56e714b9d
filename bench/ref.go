package main

import (
	"sort"
	"time"
)

// The shared virtual machines this benchmark runs on slow down in episodes
// of a second to minutes, whatever runs on them, with no steal time and CPU
// time tracking wall time: the other hyperthread of the core is busy. A
// sparse-iter solve then takes up to 1.7× its usual time, and a run's p90
// can read 56 ms or 94 ms for the same code.
//
// So every pass also times a reference kernel, the benchmark's own code (the
// program never runs it, so no change to the program moves it), every
// refEvery outside the timed operations. An end-to-end time is reported
// scaled by refNominalMs over the median of the refWindow reference times
// taken nearest to it: what it would read on a host running the reference
// at its nominal speed. The measured values and the reference median are on
// the pass's description line.
//
// The kernel mixes the two extremes of the kernels tried. Eight independent
// multiply-add chains keep the core's arithmetic units busy and slow the
// most in an episode (1.6–1.9×, as much as a sparse-iter solve); one
// dependent chain waits on each result and barely slows (≤1.07×), as did a
// pointer chase and divisions. Over forty runs the workloads' medians moved
// with the first as its time to the power 0.53 (dense-cold, http-mixed) to
// 0.81 (sparse-iter), so the kernel spends ~60% of its time on the first
// and ~40% on the second, which moves with the first to the power ~0.7.

const (
	// refNominalMs is the reference kernel's median on a quiet 2-vCPU Xeon
	// virtual machine of the kind that defined the benchmark.
	refNominalMs = 1.2
	refEvery     = 50 * time.Millisecond
	refWindow    = 5
)

// refData is the kernel's fixed input: 16 KiB, resident in the L1 cache.
var (
	refData = refInput(1<<11, 1)
	refSink float64
)

func refInput(n int, stream uint64) []float64 {
	rng := newRNG(0x5EA, stream)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// refKernel runs the reference work once: ~1.5 million multiply-adds in
// eight independent chains, then 160,000 in one dependent chain. It
// allocates nothing.
func refKernel() {
	var a, b, c, d, e, f, g, h float64
	for r := 0; r < 720; r++ {
		for i := 0; i+8 <= len(refData); i += 8 {
			a += refData[i] * 1.0001
			b += refData[i+1] * 1.0001
			c += refData[i+2] * 1.0001
			d += refData[i+3] * 1.0001
			e += refData[i+4] * 1.0001
			f += refData[i+5] * 1.0001
			g += refData[i+6] * 1.0001
			h += refData[i+7] * 1.0001
		}
	}
	x := a + b + c + d + e + f + g + h
	for i := 0; i < 160000; i++ {
		x = x*0.999999 + 1e-7
	}
	refSink += x
}

// refClock samples the reference kernel through a pass. It is used from one
// goroutine.
type refClock struct {
	at []time.Time // when each sample ended, ascending
	ms []float64
}

// sample times the reference kernel once.
func (r *refClock) sample() {
	t0 := time.Now()
	refKernel()
	t1 := time.Now()
	r.at = append(r.at, t1)
	r.ms = append(r.ms, ms(t1.Sub(t0)))
}

// tick samples the reference kernel when refEvery has passed since the last
// sample. Loops call it between operations.
func (r *refClock) tick() {
	if len(r.at) == 0 || time.Since(r.at[len(r.at)-1]) >= refEvery {
		r.sample()
	}
}

// medianMs returns the median of every reference time of the pass, sampling
// once if there is none yet.
func (r *refClock) medianMs() float64 {
	if len(r.ms) == 0 {
		r.sample()
	}
	return median(r.ms)
}

// speedAt returns the factor that scales a time measured at t to the
// reference speed: refNominalMs over the median of the refWindow samples
// nearest to t.
func (r *refClock) speedAt(t time.Time) float64 {
	if len(r.ms) == 0 {
		r.sample()
	}
	k := sort.Search(len(r.at), func(i int) bool { return !r.at[i].Before(t) })
	lo := max(0, min(k-refWindow/2, len(r.ms)-refWindow))
	hi := min(len(r.ms), lo+refWindow)
	return refNominalMs / median(r.ms[lo:hi])
}

// scaled returns each of lat (measured at the matching instant of at)
// scaled to the reference speed.
func (r *refClock) scaled(lat []float64, at []time.Time) []float64 {
	out := make([]float64, len(lat))
	for i := range lat {
		out[i] = lat[i] * r.speedAt(at[i])
	}
	return out
}
