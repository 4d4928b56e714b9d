package equilibrate_test

import (
	"fmt"

	"sea/internal/equilibrate"
)

// ExampleKernel solves one row subproblem in closed form:
// min (x₁−1)² + (x₂−1)² subject to x₁+x₂ = 4, x ≥ 0.
func ExampleKernel() {
	p := &equilibrate.Problem{
		C: []float64{1, 1},   // stationary values at λ = 0
		A: []float64{.5, .5}, // a_j = 1/(2γ_j)
		R: 4,                 // the fixed total
	}
	x := make([]float64, 2)
	res, err := equilibrate.NewKernel(0).Solve(p, x, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("x = %v, multiplier = %g\n", x, res.Lambda)
	// Output:
	// x = [2 2], multiplier = 2
}
