package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// boxed returns p with the named bound family: "unbounded" leaves it as
// generated, "upper" sets generous upper bounds (every fourth cell +Inf),
// and "lower+upper" adds lower bounds under them.
func boxed(p *DiagonalProblem, family string) *DiagonalProblem {
	p.Upper, p.Lower = nil, nil
	if family == "unbounded" {
		return p
	}
	p.Upper = make([]float64, len(p.X0))
	for k, x0 := range p.X0 {
		p.Upper[k] = 3*math.Abs(x0) + 5
		if k%4 == 0 {
			p.Upper[k] = math.Inf(1)
		}
	}
	if family == "lower+upper" {
		p.Lower = make([]float64, len(p.X0))
		for k, x0 := range p.X0 {
			p.Lower[k] = 0.01 * math.Max(0, x0)
		}
	}
	return p
}

// TestSolutionObjectiveAndDualBits: the solve reports Objective and
// DualValue from one fused sweep over the cells, and each must equal its
// standalone evaluation bit for bit, for every kind, storage and bound
// family.
func TestSolutionObjectiveAndDualBits(t *testing.T) {
	kinds := []Kind{FixedTotals, ElasticTotals, Balanced, IntervalTotals}
	for _, kind := range kinds {
		for _, storage := range []string{"dense", "csr"} {
			for _, family := range []string{"unbounded", "upper", "lower+upper"} {
				name := fmt.Sprintf("%v/%s/%s", kind, storage, family)
				t.Run(name, func(t *testing.T) {
					var p *DiagonalProblem
					if storage == "csr" {
						p = sparseFamily(t, kind, false, uint64(kind)+21)
					} else {
						rng := rand.New(rand.NewPCG(uint64(kind)+31, 5))
						switch kind {
						case FixedTotals:
							p = randFixed(rng, 13, 9, 10, 1.2)
						case ElasticTotals:
							p = randElastic(rng, 13, 9)
						case Balanced:
							p = randBalanced(rng, 11)
						case IntervalTotals:
							p = randInterval(rng, 13, 9, 0.2)
						}
					}
					p = boxed(p, family)
					o := DefaultOptions()
					o.Epsilon = 1e-6
					o.MaxIterations = 200
					sol, err := SolveDiagonal(context.Background(), p, o)
					if err != nil && !errors.Is(err, ErrNotConverged) {
						t.Fatal(err)
					}
					if got, want := sol.Objective, p.Objective(sol.X, sol.S, sol.D); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("Objective = %v, standalone %v", got, want)
					}
					if got, want := sol.DualValue, DualValue(p, sol.Lambda, sol.Mu); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("DualValue = %v, standalone %v", got, want)
					}
				})
			}
		}
	}
}
