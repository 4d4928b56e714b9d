package sea

import (
	"context"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"sea/internal/problems"
)

// testFixed builds a small feasible fixed-totals diagonal problem with
// strictly positive prior (so RAS is applicable too).
func testFixed(t testing.TB, m, n int, growth float64) *DiagonalProblem {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 11))
	x0 := make([]float64, m*n)
	gamma := make([]float64, m*n)
	for k := range x0 {
		x0[k] = 0.5 + rng.Float64()*10
		gamma[k] = 1 / x0[k]
	}
	s0 := make([]float64, m)
	d0 := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s0[i] += growth * x0[i*n+j]
			d0[j] += growth * x0[i*n+j]
		}
	}
	p, err := NewFixed(m, n, x0, gamma, s0, d0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustDiagonal wraps a valid diagonal representation through the validated
// constructor, failing the test on rejection.
func mustDiagonal(t testing.TB, d *DiagonalProblem) *Problem {
	t.Helper()
	p, err := NewDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustGeneral is mustDiagonal for the general representation.
func mustGeneral(t testing.TB, g *GeneralProblem) *Problem {
	t.Helper()
	p, err := NewGeneral(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRegistryListsAllSolvers pins the built-in registry contents.
func TestRegistryListsAllSolvers(t *testing.T) {
	want := []string{"bk", "dykstra", "projgrad", "ras", "rc", "sea", "sea-general", "unsigned"}
	got := Solvers()
	if len(got) < len(want) {
		t.Fatalf("registry lists %d solvers (%v), want at least %d", len(got), got, len(want))
	}
	have := map[string]bool{}
	for _, name := range got {
		have[name] = true
		if Describe(name) == "" {
			t.Errorf("solver %q has no description", name)
		}
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("solver %q not registered (got %v)", name, got)
		}
	}
}

// TestEverySolverSolvesFixedTotals runs each registered solver on the same
// small fixed-totals problem through the unified interface and checks the
// returned matrix meets the row totals. This is the facade's core promise:
// one problem, one call shape, every algorithm.
func TestEverySolverSolvesFixedTotals(t *testing.T) {
	p := testFixed(t, 6, 5, 1.3)
	for _, name := range Solvers() {
		o := DefaultOptions()
		o.Epsilon = 1e-8
		o.Criterion = DualGradient
		o.MaxIterations = 500000
		sol, err := Solve(context.Background(), name, mustDiagonal(t, p), o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sol.Converged {
			t.Fatalf("%s: did not converge", name)
		}
		// Row totals of X must match the solved supplies (fixed totals: S0).
		for i := 0; i < p.M; i++ {
			var rs float64
			for j := 0; j < p.N; j++ {
				rs += sol.X[i*p.N+j]
			}
			if math.Abs(rs-p.S0[i]) > 1e-5*(1+p.S0[i]) {
				t.Fatalf("%s: row %d total %g, want %g", name, i, rs, p.S0[i])
			}
		}
	}
}

// TestQuadraticSolversAgree: every solver of the weighted least-squares
// objective must land on the same optimum; RAS and unsigned legitimately
// differ (different objective / no nonnegativity) and are excluded.
func TestQuadraticSolversAgree(t *testing.T) {
	p := testFixed(t, 5, 4, 1.25)
	o := DefaultOptions()
	o.Epsilon = 1e-9
	o.Criterion = DualGradient
	o.MaxIterations = 500000
	ref, err := Solve(context.Background(), "sea", mustDiagonal(t, p), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sea-general", "rc", "bk", "dykstra", "projgrad"} {
		sol, err := Solve(context.Background(), name, mustDiagonal(t, p), o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Objective-ref.Objective) > 1e-3*(1+math.Abs(ref.Objective)) {
			t.Errorf("%s: objective %g, SEA %g", name, sol.Objective, ref.Objective)
		}
	}
}

func TestUnknownSolverErrorListsRegistry(t *testing.T) {
	_, err := Solve(context.Background(), "no-such-solver", mustDiagonal(t, testFixed(t, 2, 2, 1)), nil)
	if err == nil {
		t.Fatal("unknown solver accepted")
	}
	if !strings.Contains(err.Error(), "sea-general") {
		t.Errorf("error does not list registered solvers: %v", err)
	}
}

func TestRegisterRejectsDuplicatesAndEmptyNames(t *testing.T) {
	if err := Register(NewSolver("sea", "dup", nil)); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register(NewSolver("", "anon", nil)); err == nil {
		t.Error("empty name accepted")
	}
}

func TestProblemValidation(t *testing.T) {
	d := testFixed(t, 2, 2, 1)
	if err := (&Problem{}).Validate(); err == nil {
		t.Error("empty problem validated")
	}
	g, err := liftDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Problem{Diagonal: d, General: g}).Validate(); err == nil {
		t.Error("ambiguous problem validated")
	}
	// A general problem handed to a diagonal-only solver must error clearly.
	if _, err := Solve(context.Background(), "sea", mustGeneral(t, g), nil); err == nil {
		t.Error("diagonal-only solver accepted a general problem")
	}
}

// TestDiagonalLiftIsExact: the lifted general problem has the same optimum
// as the diagonal original.
func TestDiagonalLiftIsExact(t *testing.T) {
	d := testFixed(t, 4, 6, 1.4)
	o := DefaultOptions()
	o.Epsilon = 1e-9
	o.Criterion = DualGradient
	o.MaxIterations = 500000
	diag, err := Solve(context.Background(), "sea", mustDiagonal(t, d), o)
	if err != nil {
		t.Fatal(err)
	}
	g, err := liftDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Solve(context.Background(), "sea-general", mustGeneral(t, g), o)
	if err != nil {
		t.Fatal(err)
	}
	for k := range diag.X {
		if math.Abs(diag.X[k]-gen.X[k]) > 1e-5*(1+math.Abs(diag.X[k])) {
			t.Fatalf("lift changed the optimum at %d: %g vs %g", k, diag.X[k], gen.X[k])
		}
	}
}

// TestTraceObserverReceivesEvents: the facade's Trace option reports per-
// iteration events for registry solves.
func TestTraceObserverReceivesEvents(t *testing.T) {
	p := testFixed(t, 8, 8, 1.3)
	var col TraceCollector
	o := DefaultOptions()
	o.Epsilon = 1e-8
	o.Criterion = DualGradient
	o.MaxIterations = 100000
	o.Trace = &col
	sol, err := Solve(context.Background(), "sea", mustDiagonal(t, p), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Events) != sol.Iterations {
		t.Fatalf("%d events, want %d", len(col.Events), sol.Iterations)
	}
	var sb strings.Builder
	o2 := DefaultOptions()
	o2.Epsilon = 1e-8
	o2.Criterion = DualGradient
	o2.MaxIterations = 100000
	o2.Trace = MultiTrace(nil, NewTraceWriter(&sb, 1))
	if _, err := Solve(context.Background(), "sea", mustDiagonal(t, p), o2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sea: iter=1") {
		t.Errorf("trace writer produced no progress lines: %q", sb.String())
	}
}

// TestNilOptionsMatchDefaults: every registry solver reads nil options as
// DefaultOptions, bit for bit — including the fields only the resolver
// fills, such as the inner iteration cap of rc's projection stages.
func TestNilOptionsMatchDefaults(t *testing.T) {
	p := mustDiagonal(t, problems.Table1(8, 1))
	for _, name := range Solvers() {
		want, werr := Solve(context.Background(), name, p, DefaultOptions())
		got, gerr := Solve(context.Background(), name, p, nil)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Errorf("%s: nil options err = %v, DefaultOptions err = %v", name, gerr, werr)
			continue
		}
		if want == nil || got == nil {
			if want != got {
				t.Errorf("%s: nil options solution %v, DefaultOptions solution %v", name, got, want)
			}
			continue
		}
		if got.Iterations != want.Iterations || got.Status != want.Status {
			t.Errorf("%s: nil options ran %d iterations (%v), DefaultOptions %d (%v)",
				name, got.Iterations, got.Status, want.Iterations, want.Status)
		}
		for _, v := range []struct {
			what      string
			got, want []float64
		}{{"X", got.X, want.X}, {"Lambda", got.Lambda, want.Lambda}, {"Mu", got.Mu, want.Mu}} {
			if len(v.got) != len(v.want) {
				t.Errorf("%s: len(%s) = %d, want %d", name, v.what, len(v.got), len(v.want))
				continue
			}
			for k := range v.want {
				if math.Float64bits(v.got[k]) != math.Float64bits(v.want[k]) {
					t.Errorf("%s: %s[%d] = %v with nil options, %v with DefaultOptions", name, v.what, k, v.got[k], v.want[k])
					break
				}
			}
		}
	}
}
