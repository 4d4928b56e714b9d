package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// screenBase builds a valid 5×7 fixed-totals problem with both cell bounds
// (35 cells, so the last 3 fall in the screens' n mod 4 tail), and its CSR
// form over a 31-cell support (again 3 in the tail).
func screenBase(t *testing.T) map[string]*DiagonalProblem {
	t.Helper()
	const m, n = 5, 7
	p := &DiagonalProblem{M: m, N: n, Kind: FixedTotals,
		X0: make([]float64, m*n), Gamma: make([]float64, m*n),
		Upper: make([]float64, m*n), Lower: make([]float64, m*n),
		S0: make([]float64, m), D0: make([]float64, n)}
	for k := range p.X0 {
		p.X0[k] = float64(k%5) + 0.5
		p.Gamma[k] = 1 + float64(k%3)
		p.Upper[k] = 20
		if k%6 == 0 {
			p.Upper[k] = math.Inf(1)
		}
		p.Lower[k] = 0.25 * float64(k%2)
	}
	for i := range p.S0 {
		p.S0[i] = 14
	}
	for j := range p.D0 {
		p.D0[j] = 10
	}
	sp := *p
	sp.Upper, sp.Lower = append([]float64(nil), p.Upper...), append([]float64(nil), p.Lower...)
	for _, k := range []int{3, 11, 20, 29} {
		sp.Upper[k], sp.Lower[k] = 0, 0
	}
	csr, err := sp.Sparsify()
	if err != nil {
		t.Fatal(err)
	}
	if nnz := csr.Nnz(); nnz != 31 {
		t.Fatalf("CSR support has %d cells, want 31", nnz)
	}
	return map[string]*DiagonalProblem{"dense": p, "csr": csr}
}

// cloneCells returns p with its own copies of the per-cell arrays.
func cloneCells(p *DiagonalProblem) *DiagonalProblem {
	q := *p
	q.X0 = append([]float64(nil), p.X0...)
	q.Gamma = append([]float64(nil), p.Gamma...)
	q.Upper = append([]float64(nil), p.Upper...)
	q.Lower = append([]float64(nil), p.Lower...)
	return &q
}

// screenedAndLoop validates p with the screens and with every per-cell loop
// forced, and requires the same outcome: both nil, or the same text and
// the same errors.Is(ErrInfeasible) answer. It returns the loop's error.
func screenedAndLoop(t *testing.T, name string, p *DiagonalProblem) error {
	t.Helper()
	got := p.Validate()
	unscreened = true
	want := p.Validate()
	unscreened = false
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: screened err = %v, loop's = %v", name, got, want)
	}
	if errors.Is(got, ErrInfeasible) != errors.Is(want, ErrInfeasible) {
		t.Fatalf("%s: errors.Is(err, ErrInfeasible) = %v, loop's %v", name, errors.Is(got, ErrInfeasible), errors.Is(want, ErrInfeasible))
	}
	return want
}

// TestValidateScreenMatchesLoop: validate screens each per-cell array with
// one branch-free pass and runs its per-cell loop only when the screen
// flags it, so every error — its text, its errors.Is answers, and which of
// several bad cells it names — must be the loop's own. Every array (X0,
// Gamma, Upper, Lower) takes every bad class at the first cell, a middle
// one, the last, and one inside the screens' n mod 4 tail, in dense and
// CSR storage; the edge values that pass must pass.
func TestValidateScreenMatchesLoop(t *testing.T) {
	t.Cleanup(func() { unscreened = false })
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	values := map[string]float64{
		"NaN": nan, "+Inf": inf, "-Inf": -inf, "negative": -2.5,
		"+0": 0, "-0": negZero, "tiny": math.SmallestNonzeroFloat64, "max": math.MaxFloat64,
	}
	// The classes each array's loop rejects.
	bad := map[string]map[string]bool{
		"X0":    {"NaN": true, "+Inf": true, "-Inf": true},
		"Gamma": {"NaN": true, "+Inf": true, "-Inf": true, "negative": true, "+0": true, "-0": true},
		"Upper": {"NaN": true, "-Inf": true, "negative": true},
		"Lower": {"NaN": true, "-Inf": true, "negative": true},
	}
	arrays := map[string]func(*DiagonalProblem) []float64{
		"X0":    func(p *DiagonalProblem) []float64 { return p.X0 },
		"Gamma": func(p *DiagonalProblem) []float64 { return p.Gamma },
		"Upper": func(p *DiagonalProblem) []float64 { return p.Upper },
		"Lower": func(p *DiagonalProblem) []float64 { return p.Lower },
	}
	for storage, base := range screenBase(t) {
		if err := screenedAndLoop(t, storage, base); err != nil {
			t.Fatalf("%s: base problem: %v", storage, err)
		}
		nv := base.Nnz()
		positions := map[string]int{"first": 0, "middle": nv / 2, "last": nv - 1, "tail": nv - 2}
		for array, cellsOf := range arrays {
			for class, v := range values {
				for where, k := range positions {
					name := fmt.Sprintf("%s/%s/%s/%s", storage, array, class, where)
					p := cloneCells(base)
					// Keep the box non-empty, so only the array's own check
					// can fail.
					if array == "Lower" && v > p.Upper[k] {
						p.Upper[k] = inf
					}
					if array == "Upper" {
						p.Lower[k] = 0
					}
					cellsOf(p)[k] = v
					err := screenedAndLoop(t, name, p)
					if bad[array][class] != (err != nil) {
						t.Fatalf("%s: err = %v, want rejected=%v", name, err, bad[array][class])
					}
				}
			}
			// Two bad cells: the error names the first.
			p := cloneCells(base)
			cellsOf(p)[nv/2], cellsOf(p)[nv-2] = nan, nan
			if err := screenedAndLoop(t, storage+"/"+array+"/two", p); err == nil {
				t.Fatalf("%s/%s/two: accepted", storage, array)
			}
		}
		for where, k := range positions {
			// l > u: an empty box, ErrInfeasible.
			p := cloneCells(base)
			p.Upper[k], p.Lower[k] = 1, 1.5
			name := fmt.Sprintf("%s/empty-box/%s", storage, where)
			if err := screenedAndLoop(t, name, p); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: err = %v, want ErrInfeasible", name, err)
			}
			// l = u = +Inf is not an empty box.
			p = cloneCells(base)
			p.Upper[k], p.Lower[k] = inf, inf
			if err := screenedAndLoop(t, fmt.Sprintf("%s/inf-box/%s", storage, where), p); err != nil {
				t.Fatalf("%s/inf-box/%s: %v", storage, where, err)
			}
		}
		// Errors in an earlier array come first.
		p := cloneCells(base)
		p.X0[nv-1], p.Gamma[0], p.Lower[0] = nan, 0, -1
		screenedAndLoop(t, storage+"/order", p)
	}
}
