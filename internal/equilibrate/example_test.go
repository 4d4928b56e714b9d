package equilibrate_test

import (
	"fmt"

	"sea/internal/equilibrate"
)

// ExampleBatch solves one row subproblem in closed form:
// min (x₁−1)² + (x₂−1)² subject to x₁+x₂ = 4, x ≥ 0.
func ExampleBatch() {
	p := &equilibrate.Problem{
		C: []float64{1, 1},   // stationary values at λ = 0
		A: []float64{.5, .5}, // a_j = 1/(2γ_j)
		R: 4,                 // the fixed total
	}
	x := make([]float64, 2)
	b := equilibrate.NewBatch(0)
	if err := b.Add(p, x, nil); err != nil {
		panic(err)
	}
	if _, err := b.Solve(); err != nil {
		panic(err)
	}
	fmt.Printf("x = %v, multiplier = %g\n", x, b.Result(0).Lambda)
	// Output:
	// x = [2 2], multiplier = 2
}
