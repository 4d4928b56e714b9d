package experiments

import (
	"context"
	"fmt"
	"math"

	"sea/internal/core"
	"sea/internal/metrics"
	"sea/internal/problems"
)

// OpsRow is one line of the complexity-model validation experiment: the
// paper's operation-count model N = T̄·n²·(9 + ln n) against the measured
// instrumented counts.
type OpsRow struct {
	Size        int
	Iterations  int
	MeasuredOps int64
	ModelOps    float64
	Ratio       float64
}

// OpsModel validates the paper's Section 3.1.3 operation-count model on
// Table 1-style problems across sizes: the ratio of measured to modeled
// operations should be roughly constant, confirming the O(T̄·n²·log n)
// behaviour that justifies the parallel cost analysis.
func OpsModel(ctx context.Context, cfg Config) ([]OpsRow, error) {
	var rows []OpsRow
	for _, size := range []int{100, 200, 400, 800} {
		n := cfg.dim(size)
		p := problems.Table1(n, uint64(size)+17)
		o := core.DefaultOptions()
		o.Criterion = core.MaxAbsDelta
		o.Epsilon = cfg.eps(0.01)
		var c metrics.Counters
		o.Trace = &c
		sol, err := core.SolveDiagonal(ctx, p, o)
		if err != nil {
			return rows, fmt.Errorf("ops model, size %d: %w", n, err)
		}
		snap := c.Snapshot()
		nf := float64(n)
		model := float64(sol.Iterations) * nf * nf * (9 + math.Log(nf))
		rows = append(rows, OpsRow{
			Size:        n,
			Iterations:  sol.Iterations,
			MeasuredOps: snap.Ops,
			ModelOps:    model,
			Ratio:       float64(snap.Ops) / model,
		})
	}
	return rows, nil
}
