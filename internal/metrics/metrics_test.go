package metrics

import (
	"strings"
	"sync"
	"testing"

	"sea/internal/trace"
)

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Equilibrations.Add(1)
				c.Ops.Add(3)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Equilibrations != 8000 {
		t.Errorf("Equilibrations = %d, want 8000", s.Equilibrations)
	}
	if s.Ops != 24000 {
		t.Errorf("Ops = %d, want 24000", s.Ops)
	}
}

func TestReset(t *testing.T) {
	var c Counters
	c.Iterations.Add(5)
	c.OuterIterations.Add(2)
	c.SerialOps.Add(9)
	c.ConvChecks.Add(1)
	c.Reset()
	s := c.Snapshot()
	if s != (Snapshot{}) {
		t.Errorf("Reset left %+v", s)
	}
}

func TestSnapshotString(t *testing.T) {
	var c Counters
	c.Iterations.Add(3)
	if got := c.Snapshot().String(); !strings.Contains(got, "iter=3") {
		t.Errorf("String() = %q", got)
	}
}

// TestCountersObserveEventShapes sums the event shape of each solver
// family: a diagonal SEA sweep, a general SEA projection step (two
// half-sweeps), an RC dual cycle over its projection iterations, and a
// scaling sweep.
func TestCountersObserveEventShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []trace.Event
		want   Snapshot
	}{
		{"sea", []trace.Event{
			{Solver: "sea", Iteration: 1, Equilibrations: 5, Ops: 100},
			{Solver: "sea", Iteration: 2, Checked: true, Equilibrations: 5, Ops: 90, SerialOps: 20},
		}, Snapshot{Iterations: 2, Equilibrations: 10, Ops: 190, SerialOps: 20, ConvChecks: 1}},
		{"sea-general", []trace.Event{
			{Solver: "sea-general", Iteration: 1, Inner: 2, Checked: true, Equilibrations: 7, Ops: 500, SerialOps: 12},
			{Solver: "sea-general", Iteration: 2, Inner: 2, Equilibrations: 7, Ops: 480},
		}, Snapshot{OuterIterations: 2, Iterations: 4, Equilibrations: 14, Ops: 980, SerialOps: 12, ConvChecks: 1}},
		{"rc", []trace.Event{
			{Solver: "rc", Iteration: 1, Inner: 5, Checked: true, Equilibrations: 35, Ops: 900, SerialOps: 72},
			{Solver: "rc", Iteration: 2, Inner: 2, Checked: true, Equilibrations: 14, Ops: 300, SerialOps: 36},
		}, Snapshot{OuterIterations: 2, Iterations: 7, Equilibrations: 49, Ops: 1200, SerialOps: 108, ConvChecks: 2}},
		{"scaling sweeps", sweeps(3, 40), Snapshot{Iterations: 3, SerialOps: 3 * 40, ConvChecks: 3}},
	} {
		var c Counters
		for _, e := range tc.events {
			c.ObserveIteration(e)
		}
		if got := c.Snapshot(); got != tc.want {
			t.Errorf("%s: counters %v, want %v", tc.name, got, tc.want)
		}
	}
}

// sweeps returns the events trace.Sweep reports for n scaling sweeps.
func sweeps(n int, ops int64) []trace.Event {
	var c trace.Collector
	for i := 1; i <= n; i++ {
		trace.Sweep(&c, "sinkhorn", i, 0.1, ops)
	}
	return c.Events
}

// TestCountersObserveConcurrently: one Counters set attached to many
// concurrent solves needs no wrapping; run under -race.
func TestCountersObserveConcurrently(t *testing.T) {
	var c Counters
	obs := trace.Multi(&c) // attached as a plain observer
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 500; i++ {
				obs.ObserveIteration(trace.Event{Iteration: i, Checked: true, Equilibrations: 2, Ops: 3, SerialOps: 1})
			}
		}()
	}
	wg.Wait()
	want := Snapshot{Iterations: 4000, Equilibrations: 8000, Ops: 12000, SerialOps: 4000, ConvChecks: 4000}
	if got := c.Snapshot(); got != want {
		t.Errorf("counters %v, want %v", got, want)
	}
}
