package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"sea/internal/experiments"
	"sea/internal/report"
)

// runServe executes the HTTP front-end load run (seabench -serve): one
// closed-loop measurement plus an open-loop overload probe per shard count,
// rendered as a single table.
func runServe(ctx context.Context, cfg experiments.Config) error {
	results, err := experiments.HTTPLoadSweep(ctx, cfg)
	if err != nil {
		return err
	}

	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			report.D(r.Shards), report.D(r.Conns), report.D(r.Requests),
			fmt.Sprintf("%.0f", r.RequestsPerSec),
			fmtLatency(r.P50), fmtLatency(r.P90), fmtLatency(r.P99),
			fmt.Sprintf("%.0f%%", 100*r.HitRate),
			fmt.Sprintf("%.0f%%", 100*r.RejectedFraction),
			fmtLatency(r.OverloadP99),
		})
	}
	report.Render(os.Stdout,
		"HTTP front end: closed-loop throughput and burst saturation probe (POST /v1/solve, loopback)",
		[]string{"shards", "conns", "requests", "req/s", "p50", "p90", "p99", "hit rate", "burst shed", "burst p99"},
		rows)
	fmt.Println()
	for _, r := range results {
		fmt.Printf("serve/http: shards=%d sizes=%v wall=%s probe=%dx%d burst=%d rejected=%d\n",
			r.Shards, r.Sizes, r.Wall.Round(time.Millisecond),
			r.OverloadSize, r.OverloadSize, r.OverloadRequests, r.Rejected)
	}
	return nil
}

// fmtLatency renders a latency with microsecond resolution below 10ms.
func fmtLatency(d time.Duration) string {
	if d < 10*time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(100 * time.Microsecond).String()
}
