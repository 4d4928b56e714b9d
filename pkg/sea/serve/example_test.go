package serve_test

import (
	"context"
	"fmt"
	"log"

	"sea/pkg/sea"
	"sea/pkg/sea/serve"
)

// ExampleShardedServer stands up a small solve service, submits a fixed-totals
// problem, and reads back the typed status plus the pool statistics.
func ExampleShardedServer() {
	// A 2×2 matrix scaled to new row totals {6, 14} and column totals
	// {9, 11} from the prior [[1 2] [3 4]].
	x0 := []float64{1, 2, 3, 4}
	gamma := []float64{1, 0.5, 1 / 3.0, 0.25}
	d, err := sea.NewFixed(2, 2, x0, gamma, []float64{6, 14}, []float64{9, 11})
	if err != nil {
		log.Fatal(err)
	}
	p, err := sea.NewDiagonal(d)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := serve.NewSharded(serve.ShardedConfig{Server: serve.Config{Solver: "sea", MaxInFlight: 2}})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	sol, err := srv.Submit(context.Background(), p, nil)
	if err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("status=%s completed=%d shapes=%d\n", sol.Status, st.Completed, len(st.Shapes))
	// Output: status=converged completed=1 shapes=1
}
