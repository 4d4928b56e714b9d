// Package trace defines the pluggable per-iteration observer every solver
// in this module reports through: one Event per outer iteration, carrying
// the iteration index, the convergence measure, wall-clock phase timings,
// the instrumentation aggregates (equilibrations, abstract operations) and,
// on request, the per-task operation costs the simulated multiprocessor
// replays. It is the module's only instrumentation channel: the solver
// counters (metrics.Counters) and the parsim cost recorder are observers.
//
// The hook is deliberately minimal: solvers invoke the observer at most once
// per outer iteration, from the solve goroutine, after the parallel phases
// have completed — never from inside a worker. A nil observer costs a single
// pointer comparison per iteration, so attaching instrumentation is a
// caller's choice, not a tax on the hot path.
package trace

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Event is one outer iteration's progress report.
type Event struct {
	// Solver is the reporting solver's registry name ("sea", "rc", ...).
	Solver string
	// Iteration is the 1-based outer iteration index (row+column sweeps for
	// the diagonal SEA, projection steps for the general SEA, outer dual
	// cycles for RC, sweeps for B-K and the scaling solvers, Dykstra
	// cycles).
	Iteration int
	// Inner is the number of inner iterations this outer step consumed
	// (RC's projection iterations, the general solver's half-sweeps,
	// projected gradient's Dykstra cycles); zero for single-level solvers.
	Inner int
	// Checked reports whether a convergence verification ran this
	// iteration; when false, Residual is NaN.
	Checked bool
	// Residual is the convergence measure evaluated by the check (the
	// criterion's worst row residual or delta), NaN when Checked is false.
	Residual float64
	// RowPhase, ColPhase and CheckPhase are the wall-clock durations of the
	// iteration's row equilibration, column equilibration, and convergence
	// verification phases. Solvers without that phase structure report the
	// whole iteration under RowPhase.
	RowPhase, ColPhase, CheckPhase time.Duration
	// Equilibrations and Ops are this iteration's single-constraint
	// equilibration count and abstract operation count (the paper's
	// complexity model), and SerialOps the operations spent in serial
	// phases. Each solver tallies them for its own solve, so concurrent
	// solves never see each other's work; metrics.Counters sums them.
	Equilibrations, Ops, SerialOps int64
	// Costs holds the per-task operation costs of the phases this event
	// covers — the iteration's one phase for SEA, every inner phase since
	// the previous event for RC. Solvers fill it only when the observer
	// asks (see WantsCosts). The slices are the solver's reusable buffers,
	// valid only during the ObserveIteration call: an observer that keeps
	// them must copy.
	Costs []PhaseCosts
}

// PhaseCosts is the cost breakdown of one phase group: a row phase, a
// column phase, and any serial work that follows them.
type PhaseCosts struct {
	// Row[i] is the op count of row subproblem i; Col[j] of column
	// subproblem j. Each entry is one schedulable parallel task.
	Row []int64
	Col []int64
	// Check holds the parallel convergence-verification tasks when the
	// check runs in parallel (Options.ParallelConvCheck); nil otherwise.
	Check []int64
	// Serial is the op count of the serial phase (convergence
	// verification, or just its reduction when the check is parallel),
	// zero when no check runs.
	Serial int64
}

// Observer receives one Event per outer iteration of a solve. ObserveIteration
// is called from the solve goroutine; implementations need not be safe for
// concurrent use by a single solve, but one observer attached to concurrent
// solves must synchronize itself.
type Observer interface {
	ObserveIteration(Event)
}

// WantsCosts reports whether obs asks solvers to fill Event.Costs. An
// observer opts in by implementing WantsCosts() bool; Multi and
// Synchronized pass the question on to the observers they wrap. Filling the
// costs takes one slot per subproblem per phase, so solvers skip it unless
// asked.
func WantsCosts(obs Observer) bool {
	w, ok := obs.(interface{ WantsCosts() bool })
	return ok && w.WantsCosts()
}

// Sweep reports one sweep of a serial scaling solver (Sinkhorn, ISP,
// entropy): every sweep checks convergence, and all of its work is serial.
// A nil obs is a no-op.
func Sweep(obs Observer, solver string, iter int, residual float64, ops int64) {
	if obs == nil {
		return
	}
	obs.ObserveIteration(Event{
		Solver:    solver,
		Iteration: iter,
		Checked:   true,
		Residual:  residual,
		SerialOps: ops,
	})
}

// Func adapts an ordinary function to the Observer interface.
type Func func(Event)

// ObserveIteration implements Observer.
func (f Func) ObserveIteration(e Event) { f(e) }

// Collector is an Observer that retains every event, for tests and offline
// analysis. Not safe for concurrent solves.
type Collector struct {
	Events []Event
}

// ObserveIteration implements Observer.
func (c *Collector) ObserveIteration(e Event) { c.Events = append(c.Events, e) }

// Last returns the most recent event (zero Event if none).
func (c *Collector) Last() Event {
	if len(c.Events) == 0 {
		return Event{}
	}
	return c.Events[len(c.Events)-1]
}

// writer prints one line per observed iteration.
type writer struct {
	w     io.Writer
	every int
}

// NewWriter returns an Observer that writes a one-line progress report to w
// for every every-th iteration (and for every iteration that ran a
// convergence check when every <= 1). It is what cmd/seasolve's -trace flag
// attaches.
func NewWriter(w io.Writer, every int) Observer {
	if every < 1 {
		every = 1
	}
	return &writer{w: w, every: every}
}

// ObserveIteration implements Observer.
func (t *writer) ObserveIteration(e Event) {
	if e.Iteration%t.every != 0 {
		return
	}
	res := "-"
	if e.Checked && !math.IsNaN(e.Residual) {
		res = fmt.Sprintf("%.6g", e.Residual)
	}
	fmt.Fprintf(t.w, "%s: iter=%d residual=%s row=%s col=%s check=%s equil=%d ops=%d\n",
		e.Solver, e.Iteration, res, e.RowPhase, e.ColPhase, e.CheckPhase, e.Equilibrations, e.Ops)
}

// synchronized serializes ObserveIteration calls with a mutex.
type synchronized struct {
	mu  sync.Mutex
	obs Observer
}

// Synchronized wraps obs so that concurrent solves can share it: every
// ObserveIteration is serialized under one mutex. The Observer contract only
// requires safety within a single solve, so a serving layer that attaches
// one observer to many in-flight solves must wrap it here (unless the
// observer is documented concurrency-safe). A nil obs returns nil.
func Synchronized(obs Observer) Observer {
	if obs == nil {
		return nil
	}
	return &synchronized{obs: obs}
}

// ObserveIteration implements Observer.
func (s *synchronized) ObserveIteration(e Event) {
	s.mu.Lock()
	s.obs.ObserveIteration(e)
	s.mu.Unlock()
}

// WantsCosts passes the question on to the wrapped observer.
func (s *synchronized) WantsCosts() bool { return WantsCosts(s.obs) }

// multi fans events out to several observers in order.
type multi []Observer

// Multi returns an Observer that forwards every event to each of obs,
// skipping nils. A single non-nil observer is returned unwrapped.
func Multi(obs ...Observer) Observer {
	var live multi
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// ObserveIteration implements Observer.
func (m multi) ObserveIteration(e Event) {
	for _, o := range m {
		o.ObserveIteration(e)
	}
}

// WantsCosts reports whether any of the observers wants costs.
func (m multi) WantsCosts() bool {
	for _, o := range m {
		if WantsCosts(o) {
			return true
		}
	}
	return false
}
