package sea

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sea/internal/problems"
)

// TestUnknownSolverSentinel: lookup failures are matchable with errors.Is
// and name the registered solvers.
func TestUnknownSolverSentinel(t *testing.T) {
	if _, err := Get("nope"); !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("Get: err = %v, want ErrUnknownSolver", err)
	}
	_, err := Solve(context.Background(), "nope", mustDiagonal(t, testFixed(t, 3, 3, 1)), nil)
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("Solve: err = %v, want ErrUnknownSolver", err)
	}
	if !strings.Contains(err.Error(), "sea") {
		t.Fatalf("error %q does not list the registered solvers", err)
	}
}

// TestInvalidProblemSentinel covers every construction- and routing-time
// failure path: all of them must be matchable with errors.Is(err,
// ErrInvalidProblem).
func TestInvalidProblemSentinel(t *testing.T) {
	valid := testFixed(t, 3, 3, 1.1)
	cases := []struct {
		name string
		err  func() error
	}{
		{"nil problem", func() error {
			var p *Problem
			return p.Validate()
		}},
		{"no representation", func() error {
			_, err := Solve(context.Background(), "sea", &Problem{}, nil)
			return err
		}},
		{"both representations", func() error {
			g, _ := liftDiagonal(valid)
			return (&Problem{Diagonal: valid, General: g}).Validate()
		}},
		{"general problem to a diagonal-only solver", func() error {
			g, err := liftDiagonal(valid)
			if err != nil {
				return err
			}
			_, err = Solve(context.Background(), "sea", mustGeneral(t, g), nil)
			return err
		}},
		{"ras on a non-fixed kind", func() error {
			elastic := *valid
			elastic.Kind = ElasticTotals
			elastic.Alpha = []float64{1, 1, 1}
			elastic.Beta = []float64{1, 1, 1}
			_, err := Solve(context.Background(), "ras", mustDiagonal(t, &elastic), nil)
			return err
		}},
		{"invalid representation via NewDiagonal", func() error {
			bad := *valid
			bad.Gamma = bad.Gamma[:len(bad.Gamma)-1]
			_, err := NewDiagonal(&bad)
			return err
		}},
		{"invalid representation via NewGeneral", func() error {
			_, err := NewGeneral(&GeneralProblem{M: 2, N: 2})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.err(); !errors.Is(err, ErrInvalidProblem) {
			t.Errorf("%s: err = %v, want ErrInvalidProblem", tc.name, err)
		}
	}
}

// TestInfeasibleChainsUnderInvalidProblem: an infeasible constraint set
// detected at validation matches BOTH sentinels, so callers can branch on
// the cause without string matching.
func TestInfeasibleChainsUnderInvalidProblem(t *testing.T) {
	bad := *testFixed(t, 3, 3, 1.1)
	s0 := append([]float64(nil), bad.S0...)
	s0[0] += 100 // Σs⁰ ≠ Σd⁰: the transportation polytope is empty
	bad.S0 = s0
	_, err := NewDiagonal(&bad)
	if !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("err = %v, want ErrInvalidProblem", err)
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want the ErrInfeasible cause preserved in the chain", err)
	}
}

// TestNotConvergedSentinel: iteration-limit exhaustion is matchable and
// still returns the best iterate, stamped StatusMaxIterations.
func TestNotConvergedSentinel(t *testing.T) {
	p, err := NewDiagonal(testFixed(t, 6, 5, 1.4))
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Criterion = DualGradient
	o.Epsilon = 1e-300 // unreachable: the solve can only stop at the limit
	o.MaxIterations = 1
	sol, err := Solve(context.Background(), "sea", p, o)
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if sol == nil || len(sol.X) == 0 {
		t.Fatal("no best iterate returned alongside ErrNotConverged")
	}
	if sol.Status != StatusMaxIterations {
		t.Fatalf("status = %v, want StatusMaxIterations", sol.Status)
	}
}

// TestStatusStamping: every terminal outcome carries its explicit status.
func TestStatusStamping(t *testing.T) {
	p, err := NewDiagonal(testFixed(t, 6, 5, 1.3))
	if err != nil {
		t.Fatal(err)
	}

	sol, err := Solve(context.Background(), "sea", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusConverged {
		t.Fatalf("converged solve: status = %v, want StatusConverged", sol.Status)
	}

	// A context cancelled from inside the first observed iteration ends the
	// solve with StatusCancelled and the last consistent iterate.
	ctx, cancel := context.WithCancel(context.Background())
	o := DefaultOptions()
	o.Criterion = DualGradient
	o.Epsilon = 1e-300 // unreachable: the solve can only end by cancellation
	o.MaxIterations = 1 << 30
	o.Trace = TraceFunc(func(TraceEvent) { cancel() })
	sol, err = Solve(ctx, "sea", p, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: err = %v, want context.Canceled", err)
	}
	if sol == nil || sol.Status != StatusCancelled {
		t.Fatalf("cancelled solve: sol = %+v, want StatusCancelled", sol)
	}
}

// TestStatusStrings pins the wire format used by seasolve and matio.
func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		StatusUnknown:       "unknown",
		StatusConverged:     "converged",
		StatusMaxIterations: "max-iterations",
		StatusCancelled:     "cancelled",
		StatusSaturated:     "saturated",
	}
	for status, s := range want {
		if status.String() != s {
			t.Errorf("Status(%d).String() = %q, want %q", status, status.String(), s)
		}
	}
}

// TestValidatedConstructors: NewDiagonal/NewGeneral accept what the
// deprecated Wrap variants accepted, but reject malformed input up front.
func TestValidatedConstructors(t *testing.T) {
	d := testFixed(t, 4, 4, 1.2)
	p, err := NewDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	if p.Diagonal != d || p.General != nil {
		t.Fatal("NewDiagonal did not wrap the given representation")
	}
	if m, n := p.Size(); m != 4 || n != 4 {
		t.Fatalf("Size() = %dx%d, want 4x4", m, n)
	}

	g, err := liftDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewGeneral(g)
	if err != nil {
		t.Fatal(err)
	}
	if pg.General != g || pg.Diagonal != nil {
		t.Fatal("NewGeneral did not wrap the given representation")
	}

	if _, err := NewDiagonal(nil); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("NewDiagonal(nil): err = %v, want ErrInvalidProblem", err)
	}
	if _, err := NewGeneral(nil); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("NewGeneral(nil): err = %v, want ErrInvalidProblem", err)
	}
}

// TestValidateEdgeCases exercises the representation validation the
// constructors now run: dimension mismatches, non-finite and negative data,
// and missing weight slices.
func TestValidateEdgeCases(t *testing.T) {
	base := func() *DiagonalProblem {
		d := *testFixed(t, 3, 4, 1.1)
		d.X0 = append([]float64(nil), d.X0...)
		d.Gamma = append([]float64(nil), d.Gamma...)
		d.S0 = append([]float64(nil), d.S0...)
		d.D0 = append([]float64(nil), d.D0...)
		return &d
	}
	cases := []struct {
		name       string
		mutate     func(*DiagonalProblem)
		infeasible bool // additionally expect ErrInfeasible in the chain
	}{
		{"short X0", func(d *DiagonalProblem) { d.X0 = d.X0[:5] }, false},
		{"NaN prior", func(d *DiagonalProblem) { d.X0[2] = math.NaN() }, false},
		{"infinite prior", func(d *DiagonalProblem) { d.X0[0] = math.Inf(1) }, false},
		{"nil Gamma", func(d *DiagonalProblem) { d.Gamma = nil }, false},
		{"zero weight", func(d *DiagonalProblem) { d.Gamma[1] = 0 }, false},
		{"negative weight", func(d *DiagonalProblem) { d.Gamma[1] = -2 }, false},
		{"nil S0", func(d *DiagonalProblem) { d.S0 = nil }, false},
		{"S0/D0 length swap", func(d *DiagonalProblem) { d.S0, d.D0 = d.D0, d.S0 }, false},
		{"NaN total", func(d *DiagonalProblem) { d.S0[0] = math.NaN() }, false},
		{"negative total", func(d *DiagonalProblem) {
			d.S0[0] = -d.S0[0] // also unbalances the totals
		}, true},
	}
	for _, tc := range cases {
		d := base()
		tc.mutate(d)
		_, err := NewDiagonal(d)
		if !errors.Is(err, ErrInvalidProblem) {
			t.Errorf("%s: err = %v, want ErrInvalidProblem", tc.name, err)
		}
		if tc.infeasible && !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: err = %v, want ErrInfeasible in the chain", tc.name, err)
		}
	}
}

// TestSolversDeterministic: the registry listing is sorted, stable across
// calls, and returns an independent copy.
func TestSolversDeterministic(t *testing.T) {
	first := Solvers()
	for i := 1; i < len(first); i++ {
		if first[i-1] >= first[i] {
			t.Fatalf("Solvers() not strictly sorted: %v", first)
		}
	}
	second := Solvers()
	if len(first) != len(second) {
		t.Fatalf("Solvers() length changed between calls: %d vs %d", len(first), len(second))
	}
	second[0] = "mutated"
	third := Solvers()
	if third[0] == "mutated" {
		t.Fatal("Solvers() returned a slice aliasing registry state")
	}
	for i := range first {
		if first[i] != third[i] {
			t.Fatalf("Solvers() unstable at %d: %q vs %q", i, first[i], third[i])
		}
	}
}

// infeasibleBox is problems.Table1(8, 1) with every cell capped at its
// prior: each row total is twice its prior sum, so no row can reach it.
func infeasibleBox() *DiagonalProblem {
	p := problems.Table1(8, 1)
	p.Upper = slices.Clone(p.X0)
	return p
}

// TestInfeasibleBoxSentinel: a problem that passes validation but whose box
// cannot reach its totals fails with ErrInfeasible and no solution on every
// solver that equilibrates it, and the error names the row or column.
func TestInfeasibleBoxSentinel(t *testing.T) {
	p := mustDiagonal(t, infeasibleBox())
	for _, name := range []string{"sea", "sea-general", "rc", "dykstra", "projgrad"} {
		sol, err := Solve(context.Background(), name, p, DefaultOptions())
		if !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: err = %v, want ErrInfeasible", name, err)
			continue
		}
		if sol != nil {
			t.Errorf("%s: returned a solution (status %v) with %v", name, sol.Status, err)
		}
		if !strings.Contains(err.Error(), "row ") && !strings.Contains(err.Error(), "column ") {
			t.Errorf("%s: error %q names no row or column", name, err)
		}
	}
}

// TestDivergedStatus: a solve that stops because its duals diverged is
// typed as such — ErrDiverged alongside ErrNotConverged, and
// StatusDiverged ("diverged") rather than StatusMaxIterations, since the
// iteration cap was never reached. The dual-scaling solvers diverge on an
// infeasible box; SEA's first row phase on Table1(14, 1) with priors,
// weights and totals scaled by 1e200 sends λ to ±Inf and every cell to
// NaN, which no criterion may read as converged.
func TestDivergedStatus(t *testing.T) {
	box := mustDiagonal(t, infeasibleBox())
	huge := problems.Table1(14, 1)
	for _, xs := range [][]float64{huge.X0, huge.Gamma, huge.S0, huge.D0} {
		for i := range xs {
			xs[i] *= 1e200
		}
	}
	overflow := mustDiagonal(t, huge)
	cases := []struct {
		name string
		p    *Problem
		set  func(*Options)
	}{
		{"isp", box, func(*Options) {}},
		{"entropy", box, func(o *Options) { o.Objective = ObjectiveEntropy }},
		{"sea", overflow, func(o *Options) { o.Criterion = MaxAbsDelta }},
		{"sea", overflow, func(o *Options) { o.Criterion = RelBalance }},
		{"sea", overflow, func(o *Options) { o.Criterion = DualGradient }},
	}
	for _, c := range cases {
		o := DefaultOptions()
		c.set(o)
		name := fmt.Sprintf("%s/%v", c.name, o.Criterion)
		sol, err := Solve(context.Background(), c.name, c.p, o)
		if !errors.Is(err, ErrDiverged) || !errors.Is(err, ErrNotConverged) {
			t.Errorf("%s: err = %v, want ErrDiverged and ErrNotConverged", name, err)
			continue
		}
		if sol == nil {
			t.Fatalf("%s: no solution alongside %v", name, err)
		}
		if sol.Status != StatusDiverged || sol.Status.String() != "diverged" {
			t.Errorf("%s: status %v, want diverged", name, sol.Status)
		}
	}
	// A solver that leaves the status to the registry gets it from the error.
	sol := &Solution{}
	finalizeStatus(sol, fmt.Errorf("%w: custom %w after 3 sweeps", ErrNotConverged, ErrDiverged))
	if sol.Status != StatusDiverged {
		t.Errorf("finalizeStatus: status %v, want diverged", sol.Status)
	}
}

// TestScalingStopsOnInfeasibleBox: the dual-scaling solvers cannot name an
// infeasible subproblem, but their duals diverge on one; they stop at the
// first NaN residual with ErrNotConverged ("diverged") instead of running
// to the sweep cap.
func TestScalingStopsOnInfeasibleBox(t *testing.T) {
	p := mustDiagonal(t, infeasibleBox())
	for _, name := range []string{"isp", "entropy"} {
		o := DefaultOptions()
		if name == "entropy" {
			o.Objective = ObjectiveEntropy
		}
		sol, err := Solve(context.Background(), name, p, o)
		if !errors.Is(err, ErrNotConverged) || !strings.Contains(err.Error(), "diverged") {
			t.Errorf("%s: err = %v, want ErrNotConverged (diverged)", name, err)
			continue
		}
		if sol == nil {
			t.Errorf("%s: no solution alongside ErrNotConverged", name)
		} else if sol.Iterations >= 100 {
			t.Errorf("%s: stopped after %d sweeps, want a few", name, sol.Iterations)
		}
	}
}
