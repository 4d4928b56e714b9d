package sea_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"sea/pkg/sea"
	"sea/pkg/sea/serve"
)

// validFixed is a feasible 2×3 fixed-totals problem for the invalid cases
// below to break one check at a time.
func validFixed() *sea.DiagonalProblem {
	return &sea.DiagonalProblem{
		M: 2, N: 3,
		X0:    []float64{1, 2, 3, 4, 5, 6},
		Gamma: []float64{1, 1, 1, 1, 1, 1},
		S0:    []float64{6, 15},
		D0:    []float64{5, 7, 9},
		Kind:  sea.FixedTotals,
	}
}

// invalidCases breaks each check of DiagonalProblem.Validate once.
func invalidCases() map[string]*sea.DiagonalProblem {
	with := func(edit func(d *sea.DiagonalProblem)) *sea.DiagonalProblem {
		d := validFixed()
		edit(d)
		return d
	}
	elastic := func(edit func(d *sea.DiagonalProblem)) *sea.DiagonalProblem {
		return with(func(d *sea.DiagonalProblem) {
			d.Kind = sea.ElasticTotals
			d.Alpha = []float64{1, 1}
			d.Beta = []float64{1, 1, 1}
			edit(d)
		})
	}
	interval := func(edit func(d *sea.DiagonalProblem)) *sea.DiagonalProblem {
		return with(func(d *sea.DiagonalProblem) {
			d.Kind = sea.IntervalTotals
			d.SLo, d.SHi = []float64{5, 14}, []float64{7, 16}
			d.DLo, d.DHi = []float64{4, 6, 8}, []float64{6, 8, 10}
			edit(d)
		})
	}
	return map[string]*sea.DiagonalProblem{
		"zero dimensions": with(func(d *sea.DiagonalProblem) { d.M = 0 }),
		"short X0":        with(func(d *sea.DiagonalProblem) { d.X0 = d.X0[:5] }),
		"short Gamma":     with(func(d *sea.DiagonalProblem) { d.Gamma = d.Gamma[:5] }),
		"short S0":        with(func(d *sea.DiagonalProblem) { d.S0 = d.S0[:1] }),
		"short D0":        with(func(d *sea.DiagonalProblem) { d.D0 = d.D0[:2] }),
		"NaN X0":          with(func(d *sea.DiagonalProblem) { d.X0[4] = math.NaN() }),
		"+Inf X0":         with(func(d *sea.DiagonalProblem) { d.X0[1] = math.Inf(1) }),
		"-Inf X0":         with(func(d *sea.DiagonalProblem) { d.X0[2] = math.Inf(-1) }),
		"zero Gamma":      with(func(d *sea.DiagonalProblem) { d.Gamma[3] = 0 }),
		"negative Gamma":  with(func(d *sea.DiagonalProblem) { d.Gamma[0] = -1 }),
		"NaN Gamma":       with(func(d *sea.DiagonalProblem) { d.Gamma[5] = math.NaN() }),
		"+Inf Gamma":      with(func(d *sea.DiagonalProblem) { d.Gamma[2] = math.Inf(1) }),
		"negative Upper":  with(func(d *sea.DiagonalProblem) { d.Upper = []float64{9, 9, -1, 9, 9, 9} }),
		"Lower above Upper": with(func(d *sea.DiagonalProblem) {
			d.Upper, d.Lower = []float64{9, 9, 9, 1, 9, 9}, []float64{0, 0, 0, 2, 0, 0}
		}),
		"negative S0":       with(func(d *sea.DiagonalProblem) { d.S0 = []float64{-1, 22}; d.D0 = []float64{5, 7, 9} }),
		"imbalanced totals": with(func(d *sea.DiagonalProblem) { d.S0[1] = 16 }),
		"short Alpha":       elastic(func(d *sea.DiagonalProblem) { d.Alpha = d.Alpha[:1] }),
		"short Beta":        elastic(func(d *sea.DiagonalProblem) { d.Beta = d.Beta[:2] }),
		"short SLo":         interval(func(d *sea.DiagonalProblem) { d.SLo = d.SLo[:1] }),
		"short DHi":         interval(func(d *sea.DiagonalProblem) { d.DHi = d.DHi[:2] }),
	}
}

// TestValidationParityAcrossEntries: whichever entry a diagonal problem
// comes in by, an invalid one fails with exactly Problem.Validate's error —
// same text, same errors.Is answers — whether the entry validates it itself
// or leaves the values to the solver.
func TestValidationParityAcrossEntries(t *testing.T) {
	ctx := context.Background()
	srv, err := serve.NewServer(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reusable, err := sea.NewReusableSolver("sea")
	if err != nil {
		t.Fatal(err)
	}
	defer reusable.Close()

	for name, d := range invalidCases() {
		t.Run(name, func(t *testing.T) {
			p := &sea.Problem{Diagonal: d}
			want := p.Validate()
			if want == nil {
				t.Fatal("case is valid")
			}
			entries := map[string]func() error{
				"Solve": func() error {
					_, err := sea.Solve(ctx, "sea", p, nil)
					return err
				},
				"SolveWith": func() error {
					_, err := sea.SolveWith(ctx, p)
					return err
				},
				"Reusable.Solve": func() error {
					_, err := reusable.Solve(ctx, p, nil)
					return err
				},
				"Session.Solve": func() error {
					s := sea.NewSession(sea.WithDualWarmStart(true))
					defer s.Close()
					_, err := s.Solve(ctx, p)
					return err
				},
			}
			// The server rejects non-positive dimensions itself, with its own
			// message, before any solve runs.
			if d.M > 0 && d.N > 0 {
				entries["serve"] = func() error {
					_, err := srv.Submit(ctx, p, nil)
					return err
				}
			}
			for entry, solve := range entries {
				got := solve()
				if got == nil || got.Error() != want.Error() {
					t.Errorf("%s: err = %v, want %v", entry, got, want)
					continue
				}
				for _, target := range []error{sea.ErrInvalidProblem, sea.ErrInfeasible} {
					if errors.Is(got, target) != errors.Is(want, target) {
						t.Errorf("%s: errors.Is(err, %v) = %v, Validate's %v", entry, target, errors.Is(got, target), errors.Is(want, target))
					}
				}
			}
		})
	}
}

// TestSessionInvalidPeriodNotCounted: a period that fails validation neither
// pins the session's shape nor counts as a period, and once the shape is
// pinned, an invalid period of another shape still reports why it is
// invalid rather than its shape.
func TestSessionInvalidPeriodNotCounted(t *testing.T) {
	ctx := context.Background()
	bad := &sea.Problem{Diagonal: invalidCases()["NaN X0"]}
	want := bad.Validate()

	s := sea.NewSession(sea.WithDualWarmStart(true))
	defer s.Close()
	if _, err := s.Solve(ctx, bad); err == nil || err.Error() != want.Error() {
		t.Fatalf("invalid first period: err = %v, want %v", err, want)
	}
	if st := s.Stats(); st.Periods != 0 || st.M != 0 || st.N != 0 {
		t.Fatalf("after an invalid first period: stats = %+v, want none counted or pinned", st)
	}

	good := &sea.DiagonalProblem{
		M: 3, N: 2,
		X0:    []float64{1, 2, 3, 4, 5, 6},
		Gamma: []float64{1, 1, 1, 1, 1, 1},
		S0:    []float64{3, 7, 11},
		D0:    []float64{9, 12},
		Kind:  sea.FixedTotals,
	}
	p, err := sea.NewDiagonal(good)
	if err != nil {
		t.Fatal(err)
	}
	if sol, err := s.Solve(ctx, p); err != nil || !sol.Converged {
		t.Fatalf("valid 3×2 period: converged = %v, err = %v", sol != nil && sol.Converged, err)
	}
	if st := s.Stats(); st.Periods != 1 || st.M != 3 || st.N != 2 {
		t.Fatalf("after one valid period: stats = %+v, want 1 period pinned to 3×2", st)
	}

	if _, err := s.Solve(ctx, bad); err == nil || err.Error() != want.Error() {
		t.Fatalf("invalid 2×3 period on a 3×2 session: err = %v, want %v", err, want)
	}
	if st := s.Stats(); st.Periods != 1 {
		t.Fatalf("after an invalid later period: Periods = %d, want 1", st.Periods)
	}
}
