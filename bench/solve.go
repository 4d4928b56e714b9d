package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"sea/pkg/sea"
)

// solveWorkload is a closed loop of cold one-shot solves of one problem:
// each sea.SolveWith call builds its solver state from scratch.
type solveWorkload struct {
	name string
	// gen builds the workload's input from the run's seed (small inputs in a
	// smoke run). It is the benchmark's own work and is never timed.
	gen func(seed uint64, smoke bool) *sea.DiagonalProblem
	// wrap hands the input to the program: validation and storage choice.
	wrap func(*sea.DiagonalProblem) (*sea.Problem, error)
	// options configures the solve; procs is added per pass.
	options func() []sea.Option
	// tol bounds the answer's KKT row/column violation relative to its
	// largest total: 10× the largest seen at the commit that defined the
	// benchmark.
	tol float64
}

// The three solve workloads, timed at procs 1. Their sizes keep one solve
// within ~120 ms on a 2-vCPU host, so the p90 rests on ≥10 samples within
// the run length.
var solveWorkloads = []*solveWorkload{
	{
		// The fixed-size guard for the dense path: Table-1 fixed totals
		// converge in 2 iterations, so per-solve setup and the dense column
		// mirror are a large share of each solve.
		name: "dense-cold",
		gen: func(seed uint64, smoke bool) *sea.DiagonalProblem {
			return table1(pick(smoke, 150, 60), newRNG(seed, 1))
		},
		wrap: sea.NewDiagonalDense,
		options: func() []sea.Option {
			o := sea.DefaultOptions()
			o.Criterion, o.Epsilon = sea.MaxAbsDelta, 0.01
			return []sea.Option{sea.WithOptions(o)}
		},
		tol: 4e-14,
	},
	{
		// The iteration-bound CSR path: a balanced SAM on a band of 20
		// accounts, which NewDiagonal stores as CSR. Its 117 iterations make
		// the row and column phases nearly all of a solve, and at procs 2
		// (traced pass) put three phase barriers in each.
		name: "sparse-iter",
		gen: func(seed uint64, smoke bool) *sea.DiagonalProblem {
			n := pick(smoke, 600, 200)
			return bandSAM(n, 20, newRNG(seed, 2))
		},
		wrap: sea.NewDiagonal,
		// The default options: relative balance with ε = 1e-3.
		options: func() []sea.Option { return nil },
		tol:     9e-3,
	},
	{
		// The preconditioned path: an elastic spatial price equilibrium with
		// the ISP warm start, where the scale layer takes most of a solve.
		// Every other workload bypasses that layer.
		name: "elastic-isp",
		gen: func(seed uint64, smoke bool) *sea.DiagonalProblem {
			n := pick(smoke, 150, 30)
			return speElastic(n, n, newRNG(seed, 3))
		},
		wrap: sea.NewDiagonal,
		options: func() []sea.Option {
			o := sea.DefaultOptions()
			o.Criterion, o.Epsilon = sea.DualGradient, 0.01
			return []sea.Option{sea.WithOptions(o), sea.WithPrecondition(sea.PrecondISP)}
		},
		tol: 2e-4,
	},
}

func pick(smoke bool, full, small int) int {
	if smoke {
		return small
	}
	return full
}

func (w *solveWorkload) opts(procs int, extra ...sea.Option) []sea.Option {
	return append(append(w.options(), sea.WithProcs(procs)), extra...)
}

// verify checks one solve's answer: a converged status, and KKT row and
// column feasibility within tol relative to the largest total.
func verify(p *sea.Problem, sol *sea.Solution, err error, tol float64) error {
	if err != nil {
		return err
	}
	if sol == nil {
		return errors.New("solve returned no solution")
	}
	if sol.Status != sea.StatusConverged {
		return fmt.Errorf("solve ended with status %s", sol.Status)
	}
	r := sea.CheckKKT(p.Diagonal, sol)
	scale := 1.0
	for _, t := range [][]float64{sol.S, sol.D} {
		for _, v := range t {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	if v := math.Max(r.MaxRowViolation, r.MaxColViolation) / scale; !(v <= tol) {
		return fmt.Errorf("relative row/column violation %.3g exceeds %.3g", v, tol)
	}
	return nil
}

// setup hands the input to the program and runs one solve, reps times. The
// caller keeps only the returned problem, so the heap holds what the program
// holds: for sparse-iter, the CSR copy rather than the dense input.
func (w *solveWorkload) setup(ctx context.Context, e *env, d *sea.DiagonalProblem, reps int) (*sea.Problem, error) {
	var p *sea.Problem
	err := e.timeSetup(reps, func() (func(), error) {
		q, err := w.wrap(d)
		if err != nil {
			return nil, err
		}
		sol, err := sea.SolveWith(ctx, q, w.opts(1)...)
		p = q
		return func() { e.t.check(verify(q, sol, err, w.tol)) }, nil
	})
	return p, err
}

func (w *solveWorkload) run(ctx context.Context, e *env) error {
	p, err := w.setup(ctx, e, w.gen(e.seed, e.smoke), setupReps)
	if err != nil {
		return err
	}
	opts := w.opts(1)
	var lat []float64
	var ends []time.Time
	m0 := readMem()
	for start := time.Now(); !e.enough(start, len(lat)); {
		t0 := time.Now()
		sol, err := sea.SolveWith(ctx, p, opts...)
		t1 := time.Now()
		lat, ends = append(lat, ms(t1.Sub(t0))), append(ends, t1)
		e.t.check(verify(p, sol, err, w.tol))
		e.ref.tick()
	}
	e.reportOps(lat, ends, readMem().sub(m0).bytes)
	return nil
}

// tracedSolve is one traced solve's outside-in record.
type tracedSolve struct {
	wall    time.Duration
	obs     *iterObserver
	precond int64
}

// trace runs rounds of an untraced solve, a traced one and a traced one at
// parallelProcs, so the tracing overhead and the parallel speedup are
// measured under the same conditions.
func (w *solveWorkload) trace(ctx context.Context, e *env) error {
	p, err := w.setup(ctx, e, w.gen(e.seed, e.smoke), 1)
	if err != nil {
		return err
	}
	par := min(parallelProcs, runtime.NumCPU())
	var untraced []float64
	var mem memMark
	traced := map[int][]tracedSolve{}
	solveTraced := func(procs int) {
		obs := &iterObserver{rec: e.rec, op: e.rec.id(), parent: e.rec.id()}
		t0 := time.Now()
		sol, err := sea.SolveWith(ctx, p, w.opts(procs, sea.WithTrace(obs))...)
		t1 := time.Now()
		e.t.check(verify(p, sol, err, w.tol))
		e.rec.add(span{Op: obs.op, ID: obs.parent, Name: "sea.solve", Start: e.rec.at(t0), End: e.rec.at(t1)})
		ts := tracedSolve{wall: t1.Sub(t0), obs: obs}
		if sol != nil && sol.PrecondNs > 0 {
			ts.precond = sol.PrecondNs
			e.rec.add(obs.precondSpan(e.rec.at(t0), sol.PrecondNs))
		}
		traced[procs] = append(traced[procs], ts)
	}
	start := time.Now()
	for r := 0; time.Since(start) < e.seconds || (!e.smoke && r < 10); r++ {
		m0 := readMem()
		t0 := time.Now()
		sol, err := sea.SolveWith(ctx, p, w.opts(1)...)
		untraced = append(untraced, ms(time.Since(t0)))
		m := readMem().sub(m0)
		mem.mallocs += m.mallocs
		mem.gcs += m.gcs
		e.t.check(verify(p, sol, err, w.tol))

		solveTraced(1)
		if par > 1 {
			runtime.GOMAXPROCS(par)
			solveTraced(par)
			runtime.GOMAXPROCS(1)
		}
		e.ref.tick()
	}

	times := aggregate(e.rec.spans)
	n := len(untraced)
	e.t.set("core.allocs_per_solve", float64(mem.mallocs)/float64(n), n)
	e.t.set("runtime.gc_per_op", float64(mem.gcs)/float64(n), n)

	serial := summarize(traced[1], times, "sea.solve")
	serial.report(e)
	serial.reportKernel(e, cells(p))
	e.t.set("core.trace_overhead", serial.medianWall/median(untraced), n)
	if par > 1 {
		pp := summarize(traced[par], times, "sea.solve")
		e.t.set("parallel.speedup_p2", serial.medianWall/pp.medianWall, pp.n)
		e.t.set("parallel.phase_eff_p2", serial.phases/(float64(par)*pp.phases), pp.n)
		e.t.set("parallel.serial_share_p2", 1-pp.phases/pp.wall, pp.n)
	}
	e.t.set("scale.precond_ms", serial.precond/1e6, serial.n)
	e.t.set("scale.precond_share", ratio(serial.precond, serial.wall), serial.n)
	return nil
}

// cells returns the number of stored cells a sweep visits.
func cells(p *sea.Problem) int {
	if pt := p.Diagonal.Pattern; pt != nil {
		return pt.Nnz()
	}
	return p.Diagonal.M * p.Diagonal.N
}

// solveSummary holds per-solve means over a set of traced solves, in
// nanoseconds unless named otherwise.
type solveSummary struct {
	n                       int
	medianWall              float64 // ms
	wall, self              float64
	row, col, check, phases float64
	precond                 float64
	iterations, equil, ops  float64
}

// summarize reduces traced solves whose root span is named root.
func summarize(solves []tracedSolve, times map[int64]*opTimes, root string) solveSummary {
	s := solveSummary{n: len(solves)}
	walls := make([]float64, 0, len(solves))
	for _, ts := range solves {
		t := times[ts.obs.op]
		walls = append(walls, ms(ts.wall))
		s.wall += float64(ts.wall)
		s.self += float64(t.self[root])
		s.row += float64(t.dur["core.row"])
		s.col += float64(t.dur["core.col"])
		s.check += float64(t.dur["core.check"])
		s.precond += float64(ts.precond)
		s.iterations += float64(ts.obs.iterations)
		s.equil += float64(ts.obs.equil)
		s.ops += float64(ts.obs.ops)
	}
	if s.n > 0 {
		k := float64(s.n)
		s.medianWall = median(walls)
		for _, v := range []*float64{&s.wall, &s.self, &s.row, &s.col, &s.check, &s.precond, &s.iterations, &s.equil, &s.ops} {
			*v /= k
		}
	}
	s.phases = s.row + s.col
	return s
}

// report records the core and equilibrate counts of a summary.
func (s solveSummary) report(e *env) {
	e.t.set("core.setup_ms", s.self/1e6, s.n)
	e.t.set("core.row_ms", s.row/1e6, s.n)
	e.t.set("core.col_ms", s.col/1e6, s.n)
	e.t.set("core.check_ms", s.check/1e6, s.n)
	e.t.set("core.outer_iterations", s.iterations, s.n)
	e.t.set("equilibrate.count_per_solve", s.equil, s.n)
	e.t.set("equilibrate.ops_per_solve", s.ops, s.n)
}

// reportKernel records the kernel rates of a summary of procs-1 solves:
// row+column phase time per single-constraint equilibration and per stored
// cell per sweep (each iteration sweeps every cell twice).
func (s solveSummary) reportKernel(e *env, cells int) {
	e.t.set("equilibrate.ns_per_equil", ratio(s.phases, s.equil), s.n)
	e.t.set("equilibrate.ns_per_cell_sweep", ratio(s.phases, 2*s.iterations*float64(cells)), s.n)
}
