package main

import (
	"context"
	"fmt"
	"time"

	"sea/pkg/sea"
)

// The sequence-warm workload: one client running one sea.Session after
// another over a drifting sequence of fixed-totals periods, with dual warm
// starts. A session's first period solves cold; the rest converge in about
// one iteration, so per-solve fixed cost dominates.
const (
	seqM, seqN   = 200, 150
	seqPeriods   = 24
	seqDrift     = 0.02
	seqTol       = 5e-4
	seqSmokeSize = 20
)

// sequenceInput generates the sequence; the benchmark's own work.
func sequenceInput(e *env) []*sea.DiagonalProblem {
	m, n, periods := seqM, seqN, seqPeriods
	if e.smoke {
		m, n, periods = seqSmokeSize, seqSmokeSize, 4
	}
	return temporal(m, n, periods, seqDrift, newRNG(e.seed, 100))
}

// sequenceProblems hands every period to the program.
func sequenceProblems(seq []*sea.DiagonalProblem) ([]*sea.Problem, error) {
	out := make([]*sea.Problem, 0, len(seq))
	for _, d := range seq {
		p, err := sea.NewDiagonal(d)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// period is one timed Session.Solve.
type period struct {
	index  int // position in the session; 0 is the cold first period
	lat    float64
	end    time.Time
	traced bool
}

// sessionLoop opens sessions one after another until d has passed and
// returns every period's latency. A session that starts before d ends runs
// to completion, so at least one runs. Each period's answer goes to check.
// When traced, every other session is traced: each of its periods is
// recorded as a sea.session.solve span with its iterations.
func sessionLoop(ctx context.Context, e *env, seq []*sea.Problem, d time.Duration, traced bool, check func(*sea.Problem, *sea.Solution, error)) ([]period, []tracedSolve) {
	var periods []period
	var solves []tracedSolve
	fwd := &forwardObserver{}
	plain := []sea.Option{sea.WithDualWarmStart(true), sea.WithProcs(1)}
	withTrace := []sea.Option{sea.WithDualWarmStart(true), sea.WithProcs(1), sea.WithTrace(fwd)}
	start := time.Now()
	for n := 0; time.Since(start) < d || n == 0; n++ {
		if n > 0 {
			e.ref.tick() // between sessions, so never inside a set-up timer
		}
		tr := traced && n%2 == 0
		opts := plain
		if tr {
			opts = withTrace
		}
		s := sea.NewSession(opts...)
		for k, p := range seq {
			if tr {
				fwd.cur = &iterObserver{rec: e.rec, op: e.rec.id(), parent: e.rec.id()}
			}
			t0 := time.Now()
			sol, err := s.Solve(ctx, p)
			t1 := time.Now()
			periods = append(periods, period{index: k, lat: ms(t1.Sub(t0)), end: t1, traced: tr})
			if tr {
				o := fwd.cur
				e.rec.add(span{Op: o.op, ID: o.parent, Name: "sea.session.solve", Start: e.rec.at(t0), End: e.rec.at(t1)})
				solves = append(solves, tracedSolve{wall: t1.Sub(t0), obs: o})
			}
			check(p, sol, err)
		}
		if err := s.Close(); err != nil {
			e.t.check(fmt.Errorf("close session: %w", err))
		}
	}
	return periods, solves
}

// forwardObserver passes a session's trace events to the observer of the
// period being solved.
type forwardObserver struct{ cur *iterObserver }

func (f *forwardObserver) ObserveIteration(ev sea.TraceEvent) { f.cur.ObserveIteration(ev) }

// checkNow verifies a period's answer as soon as it is returned.
func (e *env) checkNow(p *sea.Problem, sol *sea.Solution, err error) {
	e.t.check(verify(p, sol, err, seqTol))
}

// setupSequence hands the periods to the program and runs one warm-up
// session, reps times. The warm-up answers are checked after the setup timer
// stops.
func setupSequence(ctx context.Context, e *env, input []*sea.DiagonalProblem, reps int) ([]*sea.Problem, error) {
	var seq []*sea.Problem
	err := e.timeSetup(reps, func() (func(), error) {
		var err error
		if seq, err = sequenceProblems(input); err != nil {
			return nil, err
		}
		var later []func()
		sessionLoop(ctx, e, seq, 0, false, func(p *sea.Problem, sol *sea.Solution, err error) {
			later = append(later, func() { e.checkNow(p, sol, err) })
		})
		return func() {
			for _, f := range later {
				f()
			}
		}, nil
	})
	return seq, err
}

func runSequence(ctx context.Context, e *env) error {
	seq, err := setupSequence(ctx, e, sequenceInput(e), setupReps)
	if err != nil {
		return err
	}
	m0 := readMem()
	periods, _ := sessionLoop(ctx, e, seq, e.seconds, false, e.checkNow)
	m := readMem().sub(m0)
	lat := make([]float64, len(periods))
	ends := make([]time.Time, len(periods))
	for i, p := range periods {
		lat[i], ends[i] = p.lat, p.end
	}
	e.reportOps(lat, ends, m.bytes)
	return nil
}

// traceSequence runs untraced sessions for the first 30% of the run length
// (allocation counts), then alternates traced and untraced sessions.
func traceSequence(ctx context.Context, e *env) error {
	seq, err := setupSequence(ctx, e, sequenceInput(e), 1)
	if err != nil {
		return err
	}
	m0 := readMem()
	first, _ := sessionLoop(ctx, e, seq, e.share(0.3), false, e.checkNow)
	m := readMem().sub(m0)
	n := len(first)
	e.t.set("core.allocs_per_solve", float64(m.mallocs)/float64(n), n)
	e.t.set("runtime.gc_per_op", float64(m.gcs)/float64(n), n)

	mixed, traced := sessionLoop(ctx, e, seq, e.share(0.7), true, e.checkNow)
	var cold, plain []float64
	for _, p := range first {
		if p.index == 0 {
			cold = append(cold, p.lat)
		}
	}
	for _, p := range mixed {
		if p.traced {
			continue
		}
		plain = append(plain, p.lat)
		if p.index == 0 {
			cold = append(cold, p.lat)
		}
	}
	e.t.set("sea.first_period_ms", median(cold), len(cold))

	s := summarize(traced, aggregate(e.rec.spans), "sea.session.solve")
	s.report(e)
	s.reportKernel(e, cells(seq[0]))
	e.t.set("sea.session_self_us", s.self/1e3, s.n)
	e.t.set("sea.iterations_per_period", s.iterations, s.n)
	e.t.set("core.trace_overhead", s.medianWall/median(plain), s.n)
	return nil
}
