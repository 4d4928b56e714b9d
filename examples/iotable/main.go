// Input/output table update (the Table 2 scenario): a base inter-industry
// flow table is projected to a new year with grown sector totals. The
// example also contrasts SEA with the classical RAS method, including the
// infeasible-RAS situation (Mohr, Crown and Polenske 1987) that RAS cannot
// solve but SEA can: a sparsity pattern under which no biproportional
// scaling reaches the target totals.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"sea/internal/core"
	"sea/internal/problems"
	"sea/pkg/sea"
)

func main() {
	// A 60-sector table at 50% density, totals grown 10% — a miniature of
	// the paper's IOC72a experiment.
	spec := problems.IOSpec{Name: "demo", Sectors: 60, Density: 0.5, Variant: problems.IOGrowth10, Seed: 11}
	p := problems.IOTable(spec)

	opts := core.DefaultOptions()
	opts.Criterion = core.MaxAbsDelta
	opts.Epsilon = 0.01 // the paper's Table 2 tolerance

	sol, err := core.SolveDiagonal(context.Background(), p, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SEA: updated %d-sector table in %d iterations\n", spec.Sectors, sol.Iterations)
	fmt.Printf("     objective %.4f, max KKT violation %.2e\n",
		sol.Objective, core.CheckKKT(p, sol).Max())

	// RAS on the same instance (positivity pattern is feasible here).
	rasOpts := core.DefaultOptions()
	rasOpts.Epsilon = 1e-6
	rasOpts.MaxIterations = 10000
	ras, err := sea.Solve(context.Background(), "ras", &sea.Problem{Diagonal: p}, rasOpts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RAS: converged=%v in %d sweeps (different objective: RAS solves the biproportional, not the weighted least-squares, problem)\n\n",
		ras.Converged, ras.Iterations)

	// The infeasible-RAS case: sector 1 only ships to sector 1, but sector
	// 1's purchases must shrink while sector 1's sales must grow. RAS,
	// which preserves zeros, oscillates forever; SEA opens the zero cells.
	x0 := []float64{
		50, 0, 0,
		5, 10, 10,
		5, 10, 10,
	}
	s0 := []float64{60, 25, 25} // row 1 must grow to 60...
	d0 := []float64{40, 35, 35} // ...but column 1 must shrink to 40.
	fmt.Println("infeasible-RAS instance (zero pattern blocks the totals):")
	gamma := make([]float64, 9)
	for k := range gamma {
		gamma[k] = 1
	}
	p2, err := core.NewFixed(3, 3, x0, gamma, s0, d0)
	if err != nil {
		log.Fatal(err)
	}
	rasBadOpts := core.DefaultOptions()
	rasBadOpts.Epsilon = 1e-6
	rasBadOpts.MaxIterations = 2000
	rasBad, err := sea.Solve(context.Background(), "ras", &sea.Problem{Diagonal: p2}, rasBadOpts)
	if !errors.Is(err, sea.ErrNotConverged) {
		log.Fatalf("RAS on the infeasible pattern: %v", err)
	}
	// Sinkhorn measures the row residual relative to max(s0_i, 1); the
	// column totals hold exactly after every column step.
	fmt.Printf("  RAS after %d sweeps: converged=%v (row residual %.3f; row sums %.1f, want %.1f)\n",
		rasBad.Iterations, rasBad.Converged, rasBad.Residual, rasBad.S, s0)
	o2 := core.DefaultOptions()
	o2.Criterion = core.DualGradient
	o2.Epsilon = 1e-9
	sol2, err := core.SolveDiagonal(context.Background(), p2, o2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  SEA: converged=%v in %d iterations; estimate:\n", sol2.Converged, sol2.Iterations)
	for i := 0; i < 3; i++ {
		fmt.Print("   ")
		for j := 0; j < 3; j++ {
			fmt.Printf("%8.3f", sol2.X[i*3+j])
		}
		fmt.Println()
	}
	fmt.Println("  (mass has moved into the structurally zero cells, which RAS can never do)")
}
