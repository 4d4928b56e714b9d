// Package metrics collects the instrumentation the experiments need:
// iteration counters, abstract operation counts (the paper's complexity
// model charges each exact equilibration 7n + n·ln n + 2n operations), and
// the serving layer's gauges and latency summaries. Counters is a
// trace.Observer that sums solve events with atomics, so one set can be
// attached to many concurrent solves.
package metrics

import (
	"fmt"
	"sync/atomic"

	"sea/internal/trace"
)

// Counters accumulates the quantities every experiment reports. Attach it
// as a solve's trace observer (Options.Trace, alone or through trace.Multi):
// every field is a sum over the solve's events, see ObserveIteration.
type Counters struct {
	OuterIterations atomic.Int64 // outer steps of two-level solvers
	Iterations      atomic.Int64 // single-level iterations plus inner iterations
	Equilibrations  atomic.Int64 // single row/column exact equilibrations performed
	Ops             atomic.Int64 // abstract operations, per the paper's model
	SerialOps       atomic.Int64 // operations in serial phases (convergence checks)
	ConvChecks      atomic.Int64 // convergence verifications performed
}

// ObserveIteration implements trace.Observer. An event of a two-level
// solver (Inner > 0: RC's dual cycles, the general SEA's projection steps,
// projected gradient) is one outer iteration over Inner inner ones; any
// other event is one iteration. A checked event is one convergence check,
// and the work aggregates add up as reported.
func (c *Counters) ObserveIteration(e trace.Event) {
	if e.Inner > 0 {
		c.OuterIterations.Add(1)
		c.Iterations.Add(int64(e.Inner))
	} else {
		c.Iterations.Add(1)
	}
	if e.Checked {
		c.ConvChecks.Add(1)
	}
	c.Equilibrations.Add(e.Equilibrations)
	c.Ops.Add(e.Ops)
	c.SerialOps.Add(e.SerialOps)
}

// Snapshot is an immutable copy of Counters suitable for reporting.
type Snapshot struct {
	OuterIterations int64
	Iterations      int64
	Equilibrations  int64
	Ops             int64
	SerialOps       int64
	ConvChecks      int64
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		OuterIterations: c.OuterIterations.Load(),
		Iterations:      c.Iterations.Load(),
		Equilibrations:  c.Equilibrations.Load(),
		Ops:             c.Ops.Load(),
		SerialOps:       c.SerialOps.Load(),
		ConvChecks:      c.ConvChecks.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.OuterIterations.Store(0)
	c.Iterations.Store(0)
	c.Equilibrations.Store(0)
	c.Ops.Store(0)
	c.SerialOps.Store(0)
	c.ConvChecks.Store(0)
}

// Add returns the field-wise sum of two snapshots (shard-merged stats).
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		OuterIterations: s.OuterIterations + o.OuterIterations,
		Iterations:      s.Iterations + o.Iterations,
		Equilibrations:  s.Equilibrations + o.Equilibrations,
		Ops:             s.Ops + o.Ops,
		SerialOps:       s.SerialOps + o.SerialOps,
		ConvChecks:      s.ConvChecks + o.ConvChecks,
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf("outer=%d iter=%d equil=%d ops=%d serialOps=%d checks=%d",
		s.OuterIterations, s.Iterations, s.Equilibrations, s.Ops, s.SerialOps, s.ConvChecks)
}
