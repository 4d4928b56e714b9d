// Command seasolve solves a constrained matrix problem from a file using any
// solver in the pkg/sea registry.
//
// The problem arrives either as a JSON container (see internal/matio) or as
// a bare CSV matrix plus totals derived from it:
//
//	seasolve -in problem.json -out solution.json
//	seasolve -matrix x0.csv -growth 1.1 -out solution.json
//	seasolve -in problem.json -solver ras            # RAS baseline
//	seasolve -in problem.json -solver rc -timeout 30s
//	seasolve -list                                   # show available solvers
//
// With -matrix, the row and column targets are the prior sums scaled by
// -growth and the weights are the chi-square defaults. On solver failure
// (non-convergence, timeout, infeasibility) seasolve prints the reason to
// stderr and exits non-zero without writing a solution.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sea/internal/baseline"
	"sea/internal/core"
	"sea/internal/matio"
	"sea/pkg/sea"
)

func main() {
	var (
		in         = flag.String("in", "", "problem JSON file (see internal/matio)")
		matrix     = flag.String("matrix", "", "prior matrix CSV (alternative to -in)")
		growth     = flag.Float64("growth", 1.0, "with -matrix: scale factor for the target totals")
		out        = flag.String("out", "", "solution JSON output (default stdout)")
		xcsv       = flag.String("xcsv", "", "also write the solved matrix as CSV to this path")
		solver     = flag.String("solver", "sea", "registry solver: "+strings.Join(sea.Solvers(), ", "))
		algorithm  = flag.String("algorithm", "", "deprecated alias for -solver")
		list       = flag.Bool("list", false, "list the registered solvers and exit")
		eps        = flag.Float64("eps", 1e-6, "convergence tolerance")
		criterion  = flag.String("criterion", "dual-gradient", "max-abs-delta, rel-balance, or dual-gradient")
		procs      = flag.Int("procs", 1, "parallel workers for the equilibration phases")
		maxIter    = flag.Int("maxiter", 200000, "iteration limit")
		timeout    = flag.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
		traceEvery = flag.Int("trace", 0, "print per-iteration progress every N observed iterations (0 = off)")
		precond    = flag.String("precondition", "none", "preconditioning stage: none, scale, or isp (isp's warm-start sweeps stop on the solve's criterion or a stall, within -maxiter)")
		objective  = flag.String("objective", "", "objective family: quadratic or entropy (default: the problem file's objective field, else quadratic)")
	)
	flag.Parse()

	if *list {
		for _, name := range sea.Solvers() {
			fmt.Printf("%-12s %s\n", name, sea.Describe(name))
		}
		return
	}

	name := *solver
	if *algorithm != "" {
		name = *algorithm
	}

	p, fileObjective, err := loadProblem(*in, *matrix, *growth)
	if err != nil {
		fatal(err)
	}

	o := sea.DefaultOptions()
	o.Objective = fileObjective
	if *objective != "" {
		obj, err := sea.ParseObjective(*objective)
		if err != nil {
			fatal(err)
		}
		o.Objective = obj
	}
	o.Epsilon = *eps
	o.Procs = *procs
	o.MaxIterations = *maxIter
	switch *criterion {
	case "max-abs-delta":
		o.Criterion = sea.MaxAbsDelta
	case "rel-balance":
		o.Criterion = sea.RelBalance
	case "dual-gradient":
		o.Criterion = sea.DualGradient
	default:
		fatal(fmt.Errorf("unknown criterion %q", *criterion))
	}
	if pc, err := sea.ParsePrecond(*precond); err != nil {
		fatal(err)
	} else {
		o.Precondition = pc
	}
	if *traceEvery > 0 {
		o.Trace = sea.NewTraceWriter(os.Stderr, *traceEvery)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	wrapped, err := sea.NewDiagonal(p)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	sol, err := sea.Solve(ctx, name, wrapped, o)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fatal(fmt.Errorf("solver %q exceeded the %v timeout (reached iteration %d)", name, *timeout, iterations(sol)))
		case errors.Is(err, context.Canceled):
			fatal(fmt.Errorf("solver %q canceled at iteration %d", name, iterations(sol)))
		default:
			fatal(fmt.Errorf("solver %q failed: %v", name, err))
		}
	}
	if name == "unsigned" {
		if worst := baseline.MinEntry(sol.X); worst < 0 {
			fmt.Fprintf(os.Stderr, "seasolve: warning: unsigned estimator produced negative entries (min %g); use -solver sea for a nonnegative estimate\n", worst)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := matio.WriteSolutionJSON(w, sol); err != nil {
		fatal(err)
	}
	if *xcsv != "" {
		f, err := os.Create(*xcsv)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := matio.WriteMatrixCSV(f, p.M, p.N, sol.X); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "seasolve: %s status=%s converged=%v iterations=%d residual=%g objective=%g wall=%s",
		name, sol.Status, sol.Converged, sol.Iterations, sol.Residual, sol.Objective, time.Since(start).Round(time.Millisecond))
	if sol.PrecondNs > 0 {
		fmt.Fprintf(os.Stderr, " precond=%s sweeps=%d", time.Duration(sol.PrecondNs).Round(time.Microsecond), sol.PrecondSweeps)
	}
	fmt.Fprintln(os.Stderr)
}

// iterations reports how far a failed solve got (0 when no iterate exists).
func iterations(sol *sea.Solution) int {
	if sol == nil {
		return 0
	}
	return sol.Iterations
}

// loadProblem builds the problem from either a JSON file or a CSV prior,
// also reporting the objective family the JSON container requested.
func loadProblem(in, matrix string, growth float64) (*core.DiagonalProblem, core.Objective, error) {
	switch {
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, core.ObjectiveQuadratic, err
		}
		defer f.Close()
		j, err := matio.DecodeProblem(f)
		if err != nil {
			return nil, core.ObjectiveQuadratic, err
		}
		obj, err := j.ObjectiveKind()
		if err != nil {
			return nil, core.ObjectiveQuadratic, err
		}
		p, err := j.ToCore()
		return p, obj, err
	case matrix != "":
		f, err := os.Open(matrix)
		if err != nil {
			return nil, core.ObjectiveQuadratic, err
		}
		defer f.Close()
		m, n, x0, err := matio.ReadMatrixCSV(f)
		if err != nil {
			return nil, core.ObjectiveQuadratic, err
		}
		s0 := make([]float64, m)
		d0 := make([]float64, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s0[i] += growth * x0[i*n+j]
				d0[j] += growth * x0[i*n+j]
			}
		}
		j := matio.Problem{Kind: "fixed", M: m, N: n, X0: x0, S0: s0, D0: d0}
		p, err := j.ToCore()
		return p, core.ObjectiveQuadratic, err
	default:
		return nil, core.ObjectiveQuadratic, fmt.Errorf("one of -in or -matrix is required")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "seasolve: %v\n", err)
	os.Exit(1)
}
