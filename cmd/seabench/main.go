// Command seabench regenerates every table and figure of the paper's
// evaluation (Tables 1–9, Figures 5 and 7, plus the operation-count model
// validation).
//
// Usage:
//
//	seabench -table all -scale 0.1          # quick pass over everything
//	seabench -table 7 -scale 1 -bkmax 900   # the full Table 7 comparison
//	seabench -table 6 -csv                  # machine-readable output
//	seabench -table none -benchjson BENCH_sea.json   # hot-path perf records
//	seabench -compare BENCH_sea.json new.json        # delta table, exit 1 on regression
//	seabench -table 1 -cpuprofile cpu.out   # profile a hot table
//	seabench -table all -timeout 2m         # bound the whole run
//	seabench -solver rc -size 60            # time one registry solver
//	seabench -serve -scale 0.1              # HTTP front-end load run per shard count
//	seabench -sequence -scale 0.5           # temporal sequences: cold vs chained sessions
//
// -sequence runs the temporal-sequence suite (internal/problems.Temporal):
// each drifting monthly series is solved cold (every period from scratch)
// and chained (a session carrying one arena plus the previous period's
// converged duals), reporting per-period wall time, total outer iterations,
// and the chained speedup. These are the "sequence/" records of -benchjson
// output.
//
// -serve stands up the full network stack — a sharded serve.ShardedServer
// behind the pkg/sea/serve/http transport on a loopback listener — and
// drives POST /v1/solve with a closed-loop load (8 client connections,
// back-to-back requests, exact latency distribution) followed by an
// open-loop burst that demonstrates the admission control's load shedding.
// One measurement per shard count in {1, 2, 4}; the closed loop issues
// 100000 requests scaled by -scale, at least 2000. These are the
// "serve/http" records of -benchjson output.
//
// -solver benchmarks a single solver from the pkg/sea registry on a
// generated Table 1-style instance of order -size instead of running the
// table experiments; -timeout bounds either mode through context
// cancellation.
//
// Results print as fixed-width tables (paper style); the speedup
// experiments additionally render their figures as ASCII charts.
// -benchjson runs the hot-path perf suite (ns/op, allocs/op, and
// speedup-vs-procs per instance, timed at each worker count in {1, 2, 4, 8}
// the host has cores for) and writes it as JSON, the perf trajectory
// documented in docs/PERFORMANCE.md. Every record is a measurement.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sea/internal/experiments"
	"sea/internal/parallel"
	"sea/internal/problems"
	"sea/internal/report"
	"sea/pkg/sea"
)

func main() {
	var (
		table      = flag.String("table", "all", "which experiment: 1-9, ops, all, or none")
		scale      = flag.Float64("scale", 1.0, "instance-size multiplier vs the paper (0 < scale <= 1)")
		procs      = flag.Int("procs", 1, "workers for the parallel phases of the solves")
		eps        = flag.Float64("eps", 0, "override the per-table convergence tolerance")
		bkmax      = flag.Int("bkmax", 900, "largest G order on which to run the B-K baseline (Table 7)")
		csv        = flag.Bool("csv", false, "emit CSV instead of formatted tables")
		serveMode  = flag.Bool("serve", false, "run the HTTP front-end load benchmark (pkg/sea/serve/http on a loopback listener, shards 1, 2, 4) instead of the tables")
		seqMode    = flag.Bool("sequence", false, "run the temporal-sequence benchmark (cold vs chained sessions over drifting monthly series) instead of the tables")
		solver     = flag.String("solver", "", "time a single pkg/sea registry solver instead of the tables: "+strings.Join(sea.Solvers(), ", "))
		size       = flag.Int("size", 100, "with -solver: order of the generated Table 1-style instance")
		timeout    = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		benchjson  = flag.String("benchjson", "", "also run the hot-path perf suite and write its records to this JSON file")
		benchreps  = flag.Int("benchreps", 0, "with -benchjson: timed repetitions per perf record (0 = default)")
		benchfilt  = flag.String("benchfilter", "", "with -benchjson: only measure records whose name contains this substring (e.g. sparse/); the committed BENCH_sea.json must be regenerated unfiltered because -compare counts missing records as failures")
		compare    = flag.Bool("compare", false, "compare two -benchjson files (usage: seabench -compare old.json new.json) and exit non-zero on regression")
		threshold  = flag.Float64("threshold", 0.10, "with -compare: regression threshold as a fraction of old ns/op")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile, taken at exit, to this file")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "seabench: -compare needs exactly two files: seabench -compare old.json new.json")
			os.Exit(2)
		}
		if runCompare(flag.Arg(0), flag.Arg(1), *threshold) > 0 {
			os.Exit(1)
		}
		return
	}

	// cleanup flushes the pprof outputs; it runs both on the normal exit
	// path and before the error-path os.Exit, and is idempotent.
	cleanup := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seabench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "seabench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cleanup = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memprofile != "" {
		stopCPU := cleanup
		cleanup = func() {
			stopCPU()
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "seabench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "seabench: -memprofile: %v\n", err)
			}
		}
	}
	done := cleanup
	cleanup = func() {
		done()
		cleanup = func() {}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{Scale: *scale, Procs: *procs, Epsilon: *eps, MaxBKDim: *bkmax, PerfReps: *benchreps,
		BenchFilter: *benchfilt}
	// One persistent pool serves every solve of the run; the perf suite
	// manages its own pools because it varies the worker count.
	pool := parallel.NewPool(*procs)
	defer pool.Close()
	cfg.Runner = pool

	if *serveMode {
		if err := runServe(ctx, cfg); err != nil {
			cleanup()
			fmt.Fprintf(os.Stderr, "seabench: -serve: %v\n", err)
			os.Exit(1)
		}
		cleanup()
		return
	}

	if *seqMode {
		if err := runSequence(ctx, cfg, *csv); err != nil {
			cleanup()
			fmt.Fprintf(os.Stderr, "seabench: -sequence: %v\n", err)
			os.Exit(1)
		}
		cleanup()
		return
	}

	if *solver != "" {
		p := problems.Table1(*size, 1)
		o := sea.DefaultOptions()
		o.Procs = *procs
		o.Runner = pool
		if *eps > 0 {
			o.Epsilon = *eps
		}
		wrapped, err := sea.NewDiagonal(p)
		if err != nil {
			cleanup()
			fmt.Fprintf(os.Stderr, "seabench: solver %s on %dx%d: %v\n", *solver, *size, *size, err)
			os.Exit(1)
		}
		start := time.Now()
		sol, err := sea.Solve(ctx, *solver, wrapped, o)
		wall := time.Since(start)
		if err != nil {
			cleanup()
			fmt.Fprintf(os.Stderr, "seabench: solver %s on %dx%d: %v\n", *solver, *size, *size, err)
			os.Exit(1)
		}
		fmt.Printf("solver=%s size=%dx%d procs=%d converged=%v iterations=%d residual=%g wall=%s\n",
			*solver, *size, *size, *procs, sol.Converged, sol.Iterations, sol.Residual, wall.Round(time.Microsecond))
		cleanup()
		return
	}

	requested := strings.Split(*table, ",")
	want := func(name string) bool {
		for _, r := range requested {
			if r == "all" || strings.TrimSpace(r) == name {
				return true
			}
		}
		return false
	}

	out := os.Stdout
	emit := func(title string, headers []string, rows [][]string) {
		if *csv {
			report.RenderCSV(out, headers, rows)
		} else {
			report.Render(out, title, headers, rows)
		}
		fmt.Fprintln(out)
	}
	fail := func(name string, err error) {
		cleanup()
		fmt.Fprintf(os.Stderr, "seabench: %s: %v\n", name, err)
		os.Exit(1)
	}
	defer cleanup()

	if *benchjson != "" {
		perfCfg := cfg
		perfCfg.Runner = nil
		rep, err := experiments.PerfSuite(ctx, perfCfg)
		if err != nil {
			fail("perf suite", err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail("perf suite", err)
		}
		if err := os.WriteFile(*benchjson, append(data, '\n'), 0o644); err != nil {
			fail("perf suite", err)
		}
		fmt.Fprintf(os.Stderr, "seabench: wrote %d perf records to %s\n", len(rep.Records), *benchjson)
	}

	if want("1") {
		rows, err := experiments.Table1(ctx, cfg)
		if err != nil {
			fail("table 1", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{
				fmt.Sprintf("%dx%d", r.Size, r.Size),
				report.D(r.Nonzeros), report.F(r.Seconds, 4), report.D(r.Iterations),
			})
		}
		emit("Table 1: SEA on large-scale diagonal quadratic constrained matrix problems",
			[]string{"m x n", "nonzero x0 vars", "CPU time (s)", "iterations"}, rr)
	}

	if want("2") {
		rows, err := experiments.Table2(ctx, cfg)
		if err != nil {
			fail("table 2", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{r.Dataset, report.D(r.Sectors), report.D(r.Nonzeros),
				report.F(r.Seconds, 4), report.D(r.Iterations)})
		}
		emit("Table 2: SEA on United States input/output matrix datasets",
			[]string{"dataset", "sectors", "nonzeros", "CPU time (s)", "iterations"}, rr)
	}

	if want("3") {
		rows, err := experiments.Table3(ctx, cfg)
		if err != nil {
			fail("table 3", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{r.Dataset, report.D(r.Accounts), report.D(r.Transactions),
				report.F(r.Seconds, 4), report.D(r.Iterations)})
		}
		emit("Table 3: SEA on social accounting matrix datasets",
			[]string{"dataset", "accounts", "transactions", "CPU time (s)", "iterations"}, rr)
	}

	if want("4") {
		rows, err := experiments.Table4(ctx, cfg)
		if err != nil {
			fail("table 4", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{r.Dataset, report.F(r.Seconds, 4), report.D(r.Iterations)})
		}
		emit("Table 4: SEA on United States migration tables",
			[]string{"dataset", "CPU time (s)", "iterations"}, rr)
	}

	if want("5") {
		rows, err := experiments.Table5(ctx, cfg)
		if err != nil {
			fail("table 5", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{
				fmt.Sprintf("SP%dx%d", r.Markets, r.Markets),
				report.D(r.Variables), report.F(r.Seconds, 4), report.D(r.Iterations),
			})
		}
		emit("Table 5: SEA on spatial price equilibrium problems",
			[]string{"markets", "variables", "CPU time (s)", "iterations"}, rr)
	}

	if want("6") {
		rows, err := experiments.Table6(ctx, cfg)
		if err != nil {
			fail("table 6", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{r.Example, report.D(r.N),
				report.F(r.Speedup, 2), report.Pct(r.Efficiency)})
		}
		emit("Table 6: parallel speedup and efficiency measurements for SEA on diagonal problems (simulated multiprocessor)",
			[]string{"example", "N", "S_N", "E_N"}, rr)
		if !*csv {
			renderSpeedupFigure(rows, "Figure 5: speedups of SEA on diagonal problems")
		}
	}

	if want("6e") {
		rows, err := experiments.Table6Enhanced(ctx, cfg)
		if err != nil {
			fail("table 6e", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{r.Example, report.D(r.N),
				report.F(r.Speedup, 2), report.Pct(r.Efficiency)})
		}
		emit("Table 6 (enhanced): speedups with the convergence verification parallelized (the paper's Section 4.2 suggestion)",
			[]string{"example", "N", "S_N", "E_N"}, rr)
	}

	if want("6w") {
		rows, err := experiments.Table6Wall(ctx, cfg)
		if err != nil {
			fail("table 6w", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{r.Example, report.D(r.N),
				report.F(r.Speedup, 2), report.Pct(r.Efficiency)})
		}
		emit(fmt.Sprintf("Table 6 (wall-clock): goroutine-parallel speedups on this host (GOMAXPROCS-limited; see DESIGN.md substitution 1)"),
			[]string{"example", "N", "S_N", "E_N"}, rr)
	}

	if want("7") {
		rows, err := experiments.Table7(ctx, cfg)
		if err != nil {
			fail("table 7", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{
				fmt.Sprintf("%dx%d", r.GDim, r.GDim),
				report.D(r.Runs),
				report.F(r.SEASeconds, 4), report.F(r.RCSeconds, 4), report.F(r.BKSeconds, 4),
				fmt.Sprintf("%d/%d", r.SEAOuter, r.SEAInner),
				fmt.Sprintf("%d/%d", r.RCOuter, r.RCInner),
			})
		}
		emit("Table 7: computational comparisons of SEA, RC, and B-K on general problems with 100% dense G",
			[]string{"dim of G", "runs", "SEA (s)", "RC (s)", "B-K (s)", "SEA outer/half-sweeps", "RC outer/proj"}, rr)
	}

	if want("8") {
		rows, err := experiments.Table8(ctx, cfg)
		if err != nil {
			fail("table 8", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{r.Dataset, report.D(r.GDim),
				report.F(r.Seconds, 4), report.D(r.Outer), report.D(r.Inner)})
		}
		emit("Table 8: SEA on general migration problems with 100% dense G (2304x2304)",
			[]string{"dataset", "dim of G", "CPU time (s)", "outer", "half-sweeps"}, rr)
	}

	if want("9") {
		rows, err := experiments.Table9(ctx, cfg)
		if err != nil {
			fail("table 9", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{r.Example, report.D(r.N),
				report.F(r.Speedup, 2), report.Pct(r.Efficiency)})
		}
		emit("Table 9: parallel speedup and efficiency for SEA and RC on the general 10000x10000 problem (simulated multiprocessor)",
			[]string{"algorithm", "N", "S_N", "E_N"}, rr)
		if !*csv {
			renderSpeedupFigure(rows, "Figure 7: speedups of SEA vs RC on the general problem")
		}
	}

	if want("growth") {
		rows, err := experiments.GrowthSweep(ctx, cfg)
		if err != nil {
			fail("growth sweep", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{fmt.Sprintf("%d%%", r.GrowthPct),
				report.D(r.Iterations), report.F(r.Seconds, 4)})
		}
		emit("Growth-factor sensitivity (the Table 4 difficulty mechanism): same migration table, uniformly grown totals",
			[]string{"growth", "iterations", "CPU time (s)"}, rr)
	}

	if want("relax") {
		rows, err := experiments.RelaxationAblation(ctx, cfg)
		if err != nil {
			fail("relaxation ablation", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{report.F(r.Rho, 2), report.D(r.Outer),
				report.D(r.Inner), report.F(r.Seconds, 4)})
		}
		emit("Projection relaxation ablation: step scaling rho on a general dense-G problem (rho = 1 is the paper's subproblem (79))",
			[]string{"rho", "outer", "half-sweeps", "CPU time (s)"}, rr)
	}

	if want("ops") {
		rows, err := experiments.OpsModel(ctx, cfg)
		if err != nil {
			fail("ops model", err)
		}
		var rr [][]string
		for _, r := range rows {
			rr = append(rr, []string{report.D(r.Size), report.D(r.Iterations),
				report.D64(r.MeasuredOps), report.F(r.ModelOps, 0), report.F(r.Ratio, 3)})
		}
		emit("Complexity check: measured operations vs the paper's model N = T*n^2*(9+ln n)",
			[]string{"n", "iterations", "measured ops", "model ops", "ratio"}, rr)
	}
}

// runSequence runs the temporal-sequence suite and prints the cold-vs-chained
// comparison: per-period wall time, total outer iterations, the fraction of
// iterations the chaining removed, and the wall-clock speedup.
func runSequence(ctx context.Context, cfg experiments.Config, csv bool) error {
	rows, err := experiments.SequenceSweep(ctx, cfg)
	if err != nil {
		return err
	}
	headers := []string{"sequence", "shape", "periods",
		"cold ns/period", "chained ns/period", "cold iters", "chained iters", "iters saved", "speedup"}
	var rr [][]string
	for _, r := range rows {
		rr = append(rr, []string{
			r.Name,
			fmt.Sprintf("%dx%d", r.M, r.N),
			report.D(r.Periods),
			report.D64(r.ColdNs), report.D64(r.ChainedNs),
			report.D(r.ColdIters), report.D(r.ChainedIters),
			report.Pct(r.IterSavedPct() / 100),
			report.F(r.Speedup(), 2),
		})
	}
	if csv {
		report.RenderCSV(os.Stdout, headers, rr)
	} else {
		report.Render(os.Stdout, "Temporal sequences: cold solves vs chained sessions (arena + dual warm start)", headers, rr)
	}
	fmt.Println()
	return nil
}

// renderSpeedupFigure draws the speedup-vs-N chart for a speedup table.
func renderSpeedupFigure(rows []experiments.SpeedupRow, title string) {
	byExample := map[string][]experiments.SpeedupRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byExample[r.Example]; !ok {
			order = append(order, r.Example)
		}
		byExample[r.Example] = append(byExample[r.Example], r)
	}
	var xs []float64
	for _, r := range byExample[order[0]] {
		xs = append(xs, float64(r.N))
	}
	var series []report.Series
	for _, name := range order {
		ys := make([]float64, 0, len(byExample[name]))
		for _, r := range byExample[name] {
			ys = append(ys, r.Speedup)
		}
		series = append(series, report.Series{Name: name, Ys: ys})
	}
	report.Chart(os.Stdout, title, "CPUs", "speedup", xs, series)
	fmt.Println()
}
