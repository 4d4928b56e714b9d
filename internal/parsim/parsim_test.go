package parsim

import (
	"math/rand/v2"
	"testing"

	"sea/internal/trace"
)

// plain returns a machine with no overheads, for exact-arithmetic checks.
func plain(procs int) Machine { return Machine{Procs: procs} }

func TestPhaseMakespanSerial(t *testing.T) {
	m := plain(1)
	if got := m.PhaseMakespan([]int64{3, 4, 5}); got != 12 {
		t.Errorf("serial makespan = %d, want 12", got)
	}
	if got := m.PhaseMakespan(nil); got != 0 {
		t.Errorf("empty phase = %d, want 0", got)
	}
}

func TestPhaseMakespanLPT(t *testing.T) {
	m := plain(2)
	// LPT on {5,4,3,3,3}: P1={5,3}, P2={4,3,3} → makespan 10.
	if got := m.PhaseMakespan([]int64{3, 3, 5, 4, 3}); got != 10 {
		t.Errorf("LPT makespan = %d, want 10", got)
	}
	// Perfectly divisible equal tasks.
	m4 := plain(4)
	tasks := make([]int64, 8)
	for i := range tasks {
		tasks[i] = 7
	}
	if got := m4.PhaseMakespan(tasks); got != 14 {
		t.Errorf("equal-task makespan = %d, want 14", got)
	}
}

func TestMakespanBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(50)
		tasks := make([]int64, n)
		var total, max int64
		for i := range tasks {
			tasks[i] = int64(1 + rng.IntN(1000))
			total += tasks[i]
			if tasks[i] > max {
				max = tasks[i]
			}
		}
		for _, p := range []int{1, 2, 3, 6} {
			got := plain(p).PhaseMakespan(tasks)
			lower := total / int64(p)
			if max > lower {
				lower = max
			}
			if got < lower || got > total {
				t.Fatalf("p=%d: makespan %d outside [%d,%d]", p, got, lower, total)
			}
		}
	}
}

func TestMakespanMonotoneInProcs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	tasks := make([]int64, 100)
	for i := range tasks {
		tasks[i] = int64(1 + rng.IntN(10000))
	}
	prev := plain(1).PhaseMakespan(tasks)
	for p := 2; p <= 8; p++ {
		cur := plain(p).PhaseMakespan(tasks)
		if cur > prev {
			t.Fatalf("makespan increased from %d to %d at p=%d", prev, cur, p)
		}
		prev = cur
	}
}

func makeTrace(iters, m, n int, taskCost, serial int64) []trace.PhaseCosts {
	var tr []trace.PhaseCosts
	for t := 0; t < iters; t++ {
		ph := trace.PhaseCosts{Row: make([]int64, m), Col: make([]int64, n), Serial: serial}
		for i := range ph.Row {
			ph.Row[i] = taskCost
		}
		for j := range ph.Col {
			ph.Col[j] = taskCost
		}
		tr = append(tr, ph)
	}
	return tr
}

func TestExecute(t *testing.T) {
	tr := makeTrace(2, 4, 4, 10, 5)
	// Per iteration: row 40 + col 40 + serial 5; two iterations = 170.
	if got := plain(1).Execute(tr); got != 170 {
		t.Errorf("Execute(1) = %d, want 170", got)
	}
	// p=4: row 10 + col 10 + serial 5 = 25 per iteration → 50.
	if got := plain(4).Execute(tr); got != 50 {
		t.Errorf("Execute(4) = %d, want 50", got)
	}
}

func TestSpeedupsShape(t *testing.T) {
	// A big parallel load with a small serial phase: speedups near-linear
	// but decaying with N, efficiency decreasing — the Table 6 shape.
	tr := makeTrace(1, 1000, 1000, 20_000, 1_000_000)
	ms := Speedups(tr, []int{2, 4, 6})
	if len(ms) != 3 {
		t.Fatal("wrong measurement count")
	}
	prevS, prevE := 1.0, 1.01
	for _, mrow := range ms {
		if mrow.Speedup <= prevS {
			t.Errorf("speedup not increasing: %+v", ms)
		}
		if mrow.Efficiency >= prevE {
			t.Errorf("efficiency not decreasing: %+v", ms)
		}
		if mrow.Speedup > float64(mrow.Procs) {
			t.Errorf("superlinear speedup: %+v", mrow)
		}
		prevS, prevE = mrow.Speedup, mrow.Efficiency
	}
	// With this serial share, the 2-CPU speedup should be in the paper's
	// band (~1.8–1.97).
	if ms[0].Speedup < 1.7 || ms[0].Speedup > 2.0 {
		t.Errorf("2-CPU speedup %g outside plausible band", ms[0].Speedup)
	}
}

func TestSerialDominatedTraceNoSpeedup(t *testing.T) {
	tr := makeTrace(1, 2, 2, 10, 1_000_000)
	ms := Speedups(tr, []int{6})
	if ms[0].Speedup > 1.05 {
		t.Errorf("serial-dominated trace sped up %gx", ms[0].Speedup)
	}
}

func TestMoreIterationsMoreOverhead(t *testing.T) {
	// Same total work split over many iterations suffers more fork/join
	// overhead — the reason the paper's elastic examples show lower
	// efficiency than the fixed ones.
	few := makeTrace(1, 500, 500, 100_000, 250_000)
	many := makeTrace(100, 500, 500, 1_000, 2_500)
	sFew := Speedups(few, []int{6})[0].Speedup
	sMany := Speedups(many, []int{6})[0].Speedup
	if sMany >= sFew {
		t.Errorf("many-phase trace sped up %g >= few-phase %g", sMany, sFew)
	}
}

func TestDefaultMachine(t *testing.T) {
	m := DefaultMachine(4)
	if m.Procs != 4 || m.ForkJoinBase <= 0 || m.TaskOverhead <= 0 {
		t.Errorf("DefaultMachine misconfigured: %+v", m)
	}
}

// TestLPTApproximationBound: LPT is a (4/3 − 1/(3p))-approximation of the
// optimal makespan; with the trivial lower bounds (max task, total/p) this
// gives a checkable certificate on random instances.
func TestLPTApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 40; trial++ {
		p := 2 + rng.IntN(6)
		n := p + rng.IntN(40)
		tasks := make([]int64, n)
		var total, max int64
		for i := range tasks {
			tasks[i] = int64(1 + rng.IntN(1000))
			total += tasks[i]
			if tasks[i] > max {
				max = tasks[i]
			}
		}
		got := plain(p).PhaseMakespan(tasks)
		lower := total / int64(p)
		if max > lower {
			lower = max
		}
		bound := float64(lower) * (4.0/3.0 - 1.0/(3.0*float64(p)))
		// +1 absorbs the integer division in the lower bound.
		if float64(got) > bound+float64(max) {
			t.Fatalf("trial %d: LPT makespan %d exceeds approximation bound %g (lower %d)",
				trial, got, bound, lower)
		}
	}
}

// TestCheckPhasePiggybacks: a parallelized convergence check must not be
// charged fork/join overhead.
func TestCheckPhasePiggybacks(t *testing.T) {
	m := DefaultMachine(4)
	tr := []trace.PhaseCosts{{
		Row:   []int64{100, 100, 100, 100},
		Check: []int64{10, 10, 10, 10},
	}}
	withCheck := m.Execute(tr)
	trNo := []trace.PhaseCosts{{
		Row: []int64{100, 100, 100, 100},
	}}
	without := m.Execute(trNo)
	// The check should add only its makespan (~10 + task overhead), not a
	// second fork/join block.
	delta := withCheck - without
	if delta <= 0 || delta > 10+2*m.TaskOverhead {
		t.Errorf("check phase delta = %d, want small (no fork/join)", delta)
	}
}
