// Package parsim simulates a shared-memory multiprocessor executing the
// phase structure of an equilibration algorithm — the stand-in for the
// paper's six-CPU IBM 3090-600E (see DESIGN.md, substitution 1).
//
// The simulator consumes the per-task costs a Recorder collects from a
// solve's trace events:
// for every iteration it knows the operation cost of each independent row
// and column equilibration task and of the serial convergence-verification
// phase. Executing the trace on N virtual processors schedules each parallel
// phase with longest-processing-time list scheduling, charges a fork/join
// dispatch overhead per parallel phase (the Parallel FORTRAN task-allocation
// cost), and runs serial phases on one processor. Speedup and efficiency
// are then ratios of simulated makespans, exactly as the paper computes them
// from elapsed times.
package parsim

import (
	"container/heap"
	"slices"
	"sort"

	"sea/internal/trace"
)

// Recorder is a trace.Observer that asks solvers for per-task costs and
// keeps a copy of every phase group they report, in order — the input of
// Execute and Speedups. Not safe for concurrent solves.
type Recorder struct {
	Phases []trace.PhaseCosts
}

// ObserveIteration implements trace.Observer.
func (r *Recorder) ObserveIteration(e trace.Event) {
	for _, ph := range e.Costs {
		r.Phases = append(r.Phases, trace.PhaseCosts{
			Row:    slices.Clone(ph.Row),
			Col:    slices.Clone(ph.Col),
			Check:  slices.Clone(ph.Check),
			Serial: ph.Serial,
		})
	}
}

// WantsCosts implements the trace.WantsCosts opt-in.
func (r *Recorder) WantsCosts() bool { return true }

// Machine is the simulated multiprocessor configuration.
type Machine struct {
	// Procs is the number of processors N.
	Procs int
	// ForkJoinBase and ForkJoinPerProc model the serial dispatch/barrier
	// cost of one parallel phase: Base + PerProc·N operations. The defaults
	// are calibrated so the diagonal speedup experiments land in the
	// paper's Table 6 band.
	ForkJoinBase    int64
	ForkJoinPerProc int64
	// TaskOverhead is added to every scheduled task (per-task dispatch).
	TaskOverhead int64
}

// DefaultMachine returns the calibrated machine model with N processors.
func DefaultMachine(procs int) Machine {
	return Machine{
		Procs:           procs,
		ForkJoinBase:    100_000,
		ForkJoinPerProc: 50_000,
		TaskOverhead:    50,
	}
}

// loadHeap is a min-heap of processor loads.
type loadHeap []int64

func (h loadHeap) Len() int            { return len(h) }
func (h loadHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h loadHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *loadHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *loadHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// PhaseMakespan returns the simulated duration of one parallel phase: LPT
// list scheduling of the tasks onto Procs processors, plus the fork/join
// overhead. A phase with no tasks costs nothing.
func (m Machine) PhaseMakespan(tasks []int64) int64 {
	if len(tasks) == 0 {
		return 0
	}
	procs := m.Procs
	if procs < 1 {
		procs = 1
	}
	overhead := int64(0)
	if procs > 1 {
		overhead = m.ForkJoinBase + m.ForkJoinPerProc*int64(procs)
	}
	if procs == 1 {
		var total int64
		for _, t := range tasks {
			total += t + m.TaskOverhead
		}
		return total + overhead
	}
	// LPT: largest tasks first onto the least-loaded processor.
	sorted := make([]int64, len(tasks))
	copy(sorted, tasks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	h := make(loadHeap, procs)
	heap.Init(&h)
	for _, t := range sorted {
		least := heap.Pop(&h).(int64)
		heap.Push(&h, least+t+m.TaskOverhead)
	}
	var makespan int64
	for _, load := range h {
		if load > makespan {
			makespan = load
		}
	}
	return makespan + overhead
}

// Execute returns the simulated duration of the recorded phases: for each
// phase group, the row phase and the column phase run as separate
// parallel phases (the column equilibrations need the row multipliers, so
// there is a barrier between them), followed by the serial phase.
func (m Machine) Execute(phases []trace.PhaseCosts) int64 {
	// A parallelized convergence check (ph.Check) piggybacks on the workers
	// the column phase already dispatched, so it pays no additional
	// fork/join cost — only its own makespan.
	check := m
	check.ForkJoinBase, check.ForkJoinPerProc = 0, 0
	var total int64
	for _, ph := range phases {
		total += m.PhaseMakespan(ph.Row)
		total += m.PhaseMakespan(ph.Col)
		total += check.PhaseMakespan(ph.Check)
		total += ph.Serial
	}
	return total
}

// Measurement is one row of a speedup table.
type Measurement struct {
	Procs      int
	Makespan   int64
	Speedup    float64
	Efficiency float64
}

// Speedups executes the phases on 1 processor and on each requested N,
// returning the paper's S_N = T₁/T_N and E_N = S_N/N.
func Speedups(phases []trace.PhaseCosts, procs []int) []Measurement {
	t1 := DefaultMachine(1).Execute(phases)
	out := make([]Measurement, 0, len(procs))
	for _, n := range procs {
		tn := DefaultMachine(n).Execute(phases)
		s := float64(t1) / float64(tn)
		out = append(out, Measurement{
			Procs:      n,
			Makespan:   tn,
			Speedup:    s,
			Efficiency: s / float64(n),
		})
	}
	return out
}
