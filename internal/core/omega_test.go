package core_test

import (
	"context"
	"math"
	"testing"

	"sea/internal/core"
	"sea/internal/problems"
)

// omegaCase is a solve on which the ω rule engages.
type omegaCase struct {
	name string
	p    *core.DiagonalProblem
	crit core.Criterion
	eps  float64
}

func omegaCases(t *testing.T) []omegaCase {
	return []omegaCase{
		{"sparsesam600", problems.SparseSAM(600, 20, 3), core.RelBalance, 1e-3},
		{"spe150", speMatrix(t, 150, 1), core.DualGradient, 0.01},
	}
}

func (c omegaCase) opts(procs int) *core.Options {
	o := core.DefaultOptions()
	o.Criterion, o.Epsilon, o.Procs = c.crit, c.eps, procs
	return o
}

// omegaWatch records what the ω rule did in a solve: the first iteration
// whose phases over-relax, and how many times ω fell back to 1 after that.
type omegaWatch struct {
	engagedAt, rollbacks int
	last                 float64
}

// watchOmega installs a hook that fills w and applies force in place of
// every factor above 1 the rule picks (force 0 applies the rule's own).
func watchOmega(t *testing.T, force float64) *omegaWatch {
	w := &omegaWatch{last: 1}
	core.SetOmegaHook(t, func(it int, omega float64) float64 {
		if omega > 1 && w.engagedAt == 0 {
			w.engagedAt = it
		}
		if omega == 1 && w.last > 1 {
			w.rollbacks++
		}
		w.last = omega
		if omega > 1 && force != 0 {
			return force
		}
		return omega
	})
	return w
}

func solveOK(t *testing.T, name string, p *core.DiagonalProblem, o *core.Options) *core.Solution {
	t.Helper()
	sol, err := core.SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !sol.Converged {
		t.Fatalf("%s: not converged", name)
	}
	return sol
}

// bitsEq requires got and want to match bit for bit.
func bitsEq(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s[%d] = %v, want %v (bit-exact)", name, k, got[k], want[k])
		}
	}
}

// sameSol requires two solutions of one problem in one storage to match bit
// for bit.
func sameSol(t *testing.T, name string, got, want *core.Solution) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, want %d", name, got.Iterations, want.Iterations)
	}
	bitsEq(t, name+": X", got.X, want.X)
	bitsEq(t, name+": Lambda", got.Lambda, want.Lambda)
	bitsEq(t, name+": Mu", got.Mu, want.Mu)
	bitsEq(t, name+": S", got.S, want.S)
	bitsEq(t, name+": D", got.D, want.D)
	bitsEq(t, name+": Residual", []float64{got.Residual}, []float64{want.Residual})
}

// sameAcrossStorage requires a CSR solve cs and the solve ds of its
// densified twin to match bit for bit, X on the support.
func sameAcrossStorage(t *testing.T, name string, pt *core.Pattern, n int, cs, ds *core.Solution) {
	t.Helper()
	x := make([]float64, pt.Nnz())
	for i := 0; i+1 < len(pt.RowPtr); i++ {
		for k := pt.RowPtr[i]; k < pt.RowPtr[i+1]; k++ {
			x[k] = ds.X[i*n+int(pt.ColIdx[k])]
		}
	}
	ds2 := *ds
	ds2.X = x
	sameSol(t, name, cs, &ds2)
}

// TestOmegaEngagedBitIdentical: on solves where the ω rule engages, the
// over-relaxed answer keeps every bit-identity contract of plain SEA: the
// same bits at procs 1, 2, 7 and 16, in dense and CSR storage, with the
// kernel's warm starts on or off, and on an arena that ran the solve
// before, whose kept μ̃ slab must not leak into the next solve.
func TestOmegaEngagedBitIdentical(t *testing.T) {
	for _, c := range omegaCases(t) {
		t.Run(c.name, func(t *testing.T) {
			w := watchOmega(t, 0)
			ref := solveOK(t, "procs 1", c.p, c.opts(1))
			if w.engagedAt == 0 {
				t.Fatal("ω never engaged")
			}
			t.Logf("%d iterations, ω engaged at iteration %d, %d rollbacks", ref.Iterations, w.engagedAt, w.rollbacks)
			for _, procs := range []int{2, 7, 16} {
				sameSol(t, "procs", solveOK(t, "procs", c.p, c.opts(procs)), ref)
			}
			if c.p.Pattern != nil {
				d, err := c.p.Densify()
				if err != nil {
					t.Fatal(err)
				}
				sameAcrossStorage(t, "dense twin", c.p.Pattern, c.p.N, ref, solveOK(t, "dense", d, c.opts(2)))
			} else {
				s, err := c.p.Sparsify()
				if err != nil {
					t.Fatal(err)
				}
				sameAcrossStorage(t, "CSR twin", s.Pattern, c.p.N, solveOK(t, "csr", s, c.opts(2)), ref)
			}
			ar := core.NewArena()
			defer ar.Close()
			for round := 0; round < 2; round++ {
				o := c.opts(1)
				o.Arena = ar
				sameSol(t, "arena", solveOK(t, "arena", c.p, o), ref)
			}
			core.DisableWarmStart(t)
			sameSol(t, "cold kernel", solveOK(t, "cold", c.p, c.opts(1)), ref)
		})
	}
}

// certify requires sol to pass the KKT certificate no worse than the plain
// solve's: stationarity and the column violation within 10× plain's, and
// the row residual within the criterion (the solve converged on it).
func certify(t *testing.T, name string, p *core.DiagonalProblem, sol, plain *core.Solution) {
	t.Helper()
	got, want := core.CheckKKT(p, sol), core.CheckKKT(p, plain)
	t.Logf("%s: stationarity %.3g (plain %.3g), column violation %.3g (plain %.3g)",
		name, got.MaxStationarity, want.MaxStationarity, got.MaxColViolation, want.MaxColViolation)
	if !(got.MaxStationarity <= 10*want.MaxStationarity) {
		t.Errorf("%s: stationarity %g, plain SEA %g", name, got.MaxStationarity, want.MaxStationarity)
	}
	if !(got.MaxColViolation <= 10*want.MaxColViolation) {
		t.Errorf("%s: column violation %g, plain SEA %g", name, got.MaxColViolation, want.MaxColViolation)
	}
	if got.MinX < 0 || got.MaxBoundViolation > 0 {
		t.Errorf("%s: bounds violated (min x %g, above upper %g)", name, got.MinX, got.MaxBoundViolation)
	}
}

// TestOmegaCertified: the over-relaxed solve reports the last column
// phase's exact output, so its certificate is plain SEA's: stationarity and
// column violation at plain levels. And it pays: at most half plain SEA's
// iterations (190 → 68 on SparseSAM(600,20,3), 171 → 47 on spe150).
func TestOmegaCertified(t *testing.T) {
	for _, c := range omegaCases(t) {
		t.Run(c.name, func(t *testing.T) {
			plain := solveOK(t, "plain", c.p, core.PinOmega(c.opts(1)))
			sol := solveOK(t, "over-relaxed", c.p, c.opts(1))
			t.Logf("%d iterations, plain SEA %d", sol.Iterations, plain.Iterations)
			if 2*sol.Iterations > plain.Iterations {
				t.Errorf("%d iterations, plain SEA %d; want at most half", sol.Iterations, plain.Iterations)
			}
			certify(t, c.name, c.p, sol, plain)
		})
	}
}

// TestOmegaNeverEngagedIsPlain: solves too short for the rule's three
// agreeing windows — Table 1's 2-iteration fixed-totals solve, Table 3's
// 5-iteration RandomSAM(300), and the one SEA iteration after the ISP warm
// start on an elastic spatial price instance — run plain SEA bit for bit.
func TestOmegaNeverEngagedIsPlain(t *testing.T) {
	isp := func(o *core.Options) *core.Options {
		o.Precondition = core.PrecondISP
		return o
	}
	for _, c := range []struct {
		omegaCase
		opts func(*core.Options) *core.Options
	}{
		{omegaCase{"table1", problems.Table1(120, 750), core.MaxAbsDelta, 0.01}, nil},
		{omegaCase{"randomsam300", problems.RandomSAM(300, 4), core.RelBalance, 1e-3}, nil},
		{omegaCase{"spe150/isp", speMatrix(t, 150, 1), core.DualGradient, 0.01}, isp},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := watchOmega(t, 0)
			po, o := core.PinOmega(c.omegaCase.opts(1)), c.omegaCase.opts(1)
			if c.opts != nil {
				po, o = c.opts(po), c.opts(o)
			}
			plain := solveOK(t, "plain", c.p, po)
			sol := solveOK(t, "default", c.p, o)
			if w.engagedAt != 0 {
				t.Fatalf("ω engaged at iteration %d", w.engagedAt)
			}
			t.Logf("%d iterations", sol.Iterations)
			sameSol(t, "against plain SEA", sol, plain)
		})
	}
}

// TestOmegaForcedRollback: a factor past 2, where SOR diverges, injected
// whenever the rule engages, makes the over-relaxed windows stall; each
// rolls μ̃ back to its checkpoint, and once the rollbacks are spent the solve
// finishes as plain SEA, converged and certified at plain levels.
func TestOmegaForcedRollback(t *testing.T) {
	c := omegaCases(t)[1]
	plain := solveOK(t, "plain", c.p, core.PinOmega(c.opts(1)))
	w := watchOmega(t, 3)
	sol := solveOK(t, "forced", c.p, c.opts(1))
	t.Logf("%d iterations (plain SEA %d), ω engaged at iteration %d, %d rollbacks", sol.Iterations, plain.Iterations, w.engagedAt, w.rollbacks)
	if w.rollbacks == 0 {
		t.Fatal("no rollback")
	}
	certify(t, "forced", c.p, sol, plain)
}
