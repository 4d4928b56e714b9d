package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"sea/internal/core"
	"sea/internal/parallel"
	"sea/internal/problems"
	"sea/internal/spe"
)

// PerfRecord is one machine-readable hot-path measurement: a named instance
// solved end-to-end at a fixed worker count. Subsequent PRs regress against
// these numbers (see docs/PERFORMANCE.md).
type PerfRecord struct {
	// Name identifies the instance family (matching the benchmark names in
	// bench_test.go where one exists).
	Name string `json:"name"`
	// Procs is the worker count of the persistent pool used for the solve.
	Procs int `json:"procs"`
	// NsPerOp is the mean wall time of one full solve, in nanoseconds.
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is the mean heap-allocation count of one full solve
	// (dominated by state setup; the iteration loop itself is
	// allocation-free in steady state).
	AllocsPerOp uint64 `json:"allocs_per_op"`
	// Iterations is the solver iteration count (identical across Procs —
	// the determinism contract).
	Iterations int `json:"iterations"`
	// SpeedupVsSerial is serial ns/op divided by this record's ns/op; 1.0
	// for the Procs = 1 rows. For the "/steady" records it is the cold
	// serial ns/op divided by the steady-state ns/op — the serving-mode
	// speedup from arena reuse plus kernel warm starts.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// RequestsPerSec, set only on the "serve/http" records, is the HTTP
	// front end's closed-loop request throughput (see
	// experiments.HTTPLoadSweep; for these records Procs is each solve's
	// worker count and NsPerOp the wall time per request).
	RequestsPerSec float64 `json:"requests_per_sec,omitempty"`
	// ShapeHitRate, set only on the "serve/http" records, is the shape-pool
	// hit fraction of the measured phase; steady state is 1.0.
	ShapeHitRate float64 `json:"shape_hit_rate,omitempty"`
	// Shards, set only on the "serve/http" records, is the sharded server's
	// inner Server count; seabench -compare keys these records by
	// (name, procs, shards).
	Shards int `json:"shards,omitempty"`
	// P50Ms and P99Ms, set only on the "serve/http" records, are the
	// closed-loop per-request latency quantiles in milliseconds (end to end
	// through the HTTP transport; see experiments.HTTPLoadSweep).
	P50Ms float64 `json:"p50_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
	// RejectedFraction, set only on the "serve/http" records, is the share
	// of the open-loop overload probe's arrivals answered 429 — the
	// admission-control saturation behavior at 1.5x capacity.
	RejectedFraction float64 `json:"rejected_fraction,omitempty"`
	// Nnz, set on the CSR-storage ("sparse/") records, is the instance's
	// stored-cell count: per-iteration cost and solve-time heap bytes scale
	// with it rather than with m·n (docs/PERFORMANCE.md, memory model).
	Nnz int `json:"nnz,omitempty"`
	// NsPerIter is NsPerOp divided by Iterations — the per-iteration wall
	// cost, the unit in which the sparse records' O(nnz) scaling claim is
	// stated.
	NsPerIter int64 `json:"ns_per_iter,omitempty"`
	// BytesPerOp, set on the Procs = 1 instance records, is the total heap
	// bytes allocated by one cold solve (runtime.MemStats TotalAlloc delta:
	// solver state, arena, kernel scratch). For CSR instances it is the
	// resident-footprint figure that must stay proportional to nnz.
	BytesPerOp uint64 `json:"bytes_per_op,omitempty"`
	// OuterIterations is the solver's outer (dual block-ascent) iteration
	// count, written explicitly so seabench -compare can gate
	// iteration-count regressions. It equals Iterations on solve records;
	// older baselines without the field are exempt from the gate.
	OuterIterations int `json:"outer_iterations,omitempty"`
	// PrecondNs, set on the "/precond" records, is the preconditioning
	// stage's wall time in nanoseconds — the upfront cost the cut in
	// outer iterations has to repay for a net wall-clock win.
	PrecondNs int64 `json:"precond_ns,omitempty"`
	// Periods, set on the "sequence/" records, is the temporal sequence's
	// length: NsPerOp is mean wall per period, Iterations the total over the
	// sequence, and the "/chained" record's SpeedupVsSerial is the cold
	// per-period wall divided by the chained one (see
	// experiments.SequenceSweep).
	Periods int `json:"periods,omitempty"`
}

// PerfReport is the top-level BENCH_sea.json document.
type PerfReport struct {
	GeneratedUnix int64        `json:"generated_unix"`
	GoMaxProcs    int          `json:"go_max_procs"`
	NumCPU        int          `json:"num_cpu"`
	Scale         float64      `json:"scale"`
	Records       []PerfRecord `json:"records"`
}

// perfReps is how many timed solves each record averages over (after one
// untimed warm-up).
const perfReps = 3

// steadyReps is how many timed solves the steady-state records average
// over; higher than perfReps because each solve is several times faster.
const steadyReps = 10

// steadyNs times repeated same-shape solves of p on one reusable arena —
// the serving-mode measurement — and reports mean ns/op and allocs/op.
// The first solve on the arena is untimed warm-up: it populates the arena
// and the kernel warm-start states, so the timed reps see the steady state.
func steadyNs(ctx context.Context, p *core.DiagonalProblem, opts func() *core.Options) (nsPerOp int64, allocsPerOp uint64, err error) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	arena := core.NewArena()
	defer arena.Close()
	build := func() *core.Options {
		o := opts()
		o.Runner = pool
		o.Arena = arena
		return o
	}
	if _, err := core.SolveDiagonal(ctx, p, build()); err != nil {
		return 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for rep := 0; rep < steadyReps; rep++ {
		if _, err := core.SolveDiagonal(ctx, p, build()); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return elapsed.Nanoseconds() / steadyReps, (ms1.Mallocs - ms0.Mallocs) / steadyReps, nil
}

// perfProcs is the worker-count sweep of the instance records. Counts above
// runtime.NumCPU are skipped: a record the host cannot time is left out,
// not modelled.
var perfProcs = [...]int{1, 2, 4, 8}

// PerfSuite measures the SEA hot path on representative diagonal instances
// at each worker count of perfProcs the host has cores for, reusing one
// persistent pool per worker count across all reps. Every record is a
// wall-clock measurement. It is the data source for seabench's -benchjson
// output.
func PerfSuite(ctx context.Context, cfg Config) (PerfReport, error) {
	type instance struct {
		name  string
		build func() (*core.DiagonalProblem, error)
		crit  core.Criterion
		eps   float64
	}
	instances := []instance{
		{"table1/diagonal500", func() (*core.DiagonalProblem, error) {
			return problems.Table1(cfg.dim(500), 1), nil
		}, core.MaxAbsDelta, 0.01},
		{"table1/diagonal1000", func() (*core.DiagonalProblem, error) {
			return problems.Table1(cfg.dim(1000), 1000), nil
		}, core.MaxAbsDelta, 0.01},
		{"table3/sam300", func() (*core.DiagonalProblem, error) {
			return problems.RandomSAM(cfg.dim(300), 4), nil
		}, core.RelBalance, 0.001},
		{"table5/spe250", func() (*core.DiagonalProblem, error) {
			return spe.Generate(cfg.dim(250), cfg.dim(250), 6).ToConstrainedMatrix()
		}, core.DualGradient, 0.01},
		// The sparse tiers: CSR storage on cyclic-band supports at ~1%
		// density. diagonal10k is the headline O(nnz) claim — m = n = 10⁴,
		// where a dense representation would be 10⁸ cells but only ~10⁶ are
		// stored — and sam2000 covers the Balanced kind's sparse path.
		{"sparse/diagonal10k", func() (*core.DiagonalProblem, error) {
			n := cfg.dim(10000)
			return problems.SparseTable1(n, problems.SparseBand(n), 1), nil
		}, core.MaxAbsDelta, 0.01},
		{"sparse/sam2000", func() (*core.DiagonalProblem, error) {
			n := cfg.dim(2000)
			return problems.SparseSAM(n, problems.SparseBand(n), 7), nil
		}, core.RelBalance, 0.001},
	}

	// precondTiers picks which instances also emit a "/precond" record:
	// the hard elastic tier plus the two tiers that converge in a couple
	// of outer iterations anyway, bracketing where the warm start pays.
	precondTiers := map[string]bool{
		"table5/spe250":       true,
		"table1/diagonal1000": true,
		"sparse/diagonal10k":  true,
	}

	// matches applies cfg.BenchFilter (seabench -benchfilter): an empty
	// filter keeps everything, so unfiltered runs always emit the full suite
	// that the strict-missing -compare gate expects.
	matches := func(name string) bool {
		return cfg.BenchFilter == "" || strings.Contains(name, cfg.BenchFilter)
	}

	reps := cfg.PerfReps
	if reps <= 0 {
		reps = perfReps
	}

	report := PerfReport{
		GeneratedUnix: time.Now().Unix(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Scale:         cfg.Scale,
	}
	for _, inst := range instances {
		if !matches(inst.name) {
			continue
		}
		p, err := inst.build()
		if err != nil {
			return report, fmt.Errorf("perf %s: %w", inst.name, err)
		}
		nnz := 0
		if p.Pattern != nil {
			nnz = p.Pattern.Nnz()
		}
		baseOpts := func() *core.Options {
			o := core.DefaultOptions()
			o.Criterion = inst.crit
			o.Epsilon = cfg.eps(inst.eps)
			o.MaxIterations = 500000
			return o
		}
		// One untimed serial solve faults pages in and measures the bytes a
		// cold solve allocates.
		var coldBytes uint64
		{
			var msA, msB runtime.MemStats
			runtime.ReadMemStats(&msA)
			if _, err := core.SolveDiagonal(ctx, p, baseOpts()); err != nil {
				return report, fmt.Errorf("perf %s warm-up: %w", inst.name, err)
			}
			runtime.ReadMemStats(&msB)
			// TotalAlloc is monotonic, so the delta is everything this cold
			// solve allocated: solver state, pool, and kernel scratch.
			coldBytes = msB.TotalAlloc - msA.TotalAlloc
		}

		var serialNs int64
		var steadyIters int
		for _, procs := range perfProcs {
			if procs > runtime.NumCPU() {
				break
			}

			pool := parallel.NewPool(procs)
			opts := func() *core.Options {
				o := baseOpts()
				o.Runner = pool
				return o
			}

			// Warm-up solve, untimed: faults pages in and validates.
			sol, err := core.SolveDiagonal(ctx, p, opts())
			if err != nil {
				pool.Close()
				return report, fmt.Errorf("perf %s procs=%d: %w", inst.name, procs, err)
			}

			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for rep := 0; rep < reps; rep++ {
				if _, err := core.SolveDiagonal(ctx, p, opts()); err != nil {
					pool.Close()
					return report, fmt.Errorf("perf %s procs=%d rep %d: %w", inst.name, procs, rep, err)
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			pool.Close()

			nsPerOp := elapsed.Nanoseconds() / int64(reps)
			allocs := (ms1.Mallocs - ms0.Mallocs) / uint64(reps)
			if procs == 1 {
				serialNs = nsPerOp
			}
			steadyIters = sol.Iterations
			speedup := 1.0
			if serialNs > 0 {
				speedup = float64(serialNs) / float64(nsPerOp)
			}
			rec := PerfRecord{
				Name:            inst.name,
				Procs:           procs,
				NsPerOp:         nsPerOp,
				AllocsPerOp:     allocs,
				Iterations:      sol.Iterations,
				OuterIterations: sol.Iterations,
				SpeedupVsSerial: speedup,
				Nnz:             nnz,
				NsPerIter:       perIter(nsPerOp, sol.Iterations),
			}
			if procs == 1 {
				rec.BytesPerOp = coldBytes
			}
			report.Records = append(report.Records, rec)
		}

		// Steady-state serving record: repeated same-shape solves on one
		// reusable arena with kernel warm starts.
		warmNs, warmAllocs, err := steadyNs(ctx, p, baseOpts)
		if err != nil {
			return report, fmt.Errorf("perf %s steady: %w", inst.name, err)
		}
		report.Records = append(report.Records, PerfRecord{
			Name:            inst.name + "/steady",
			Procs:           1,
			NsPerOp:         warmNs,
			AllocsPerOp:     warmAllocs,
			Iterations:      steadyIters,
			OuterIterations: steadyIters,
			SpeedupVsSerial: float64(serialNs) / float64(warmNs),
			Nnz:             nnz,
			NsPerIter:       perIter(warmNs, steadyIters),
		})

		// Preconditioned record: the same serial solve behind the ISP
		// warm-start stage (Options.Precondition). Measured on the tiers
		// that bracket the tradeoff — the elastic spe250 tier where the
		// warm start pays severalfold, and two fast-converging tiers where
		// it is pure overhead (the crossover documented in
		// docs/PERFORMANCE.md). SpeedupVsSerial against the plain Procs = 1
		// record is the net wall-clock verdict.
		if precondTiers[inst.name] {
			popts := func() *core.Options {
				o := baseOpts()
				o.Precondition = core.PrecondISP
				return o
			}
			sol, err := core.SolveDiagonal(ctx, p, popts())
			if err != nil {
				return report, fmt.Errorf("perf %s precond: %w", inst.name, err)
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for rep := 0; rep < reps; rep++ {
				if _, err := core.SolveDiagonal(ctx, p, popts()); err != nil {
					return report, fmt.Errorf("perf %s precond rep %d: %w", inst.name, rep, err)
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			nsPerOp := elapsed.Nanoseconds() / int64(reps)
			report.Records = append(report.Records, PerfRecord{
				Name:            inst.name + "/precond",
				Procs:           1,
				NsPerOp:         nsPerOp,
				AllocsPerOp:     (ms1.Mallocs - ms0.Mallocs) / uint64(reps),
				Iterations:      sol.Iterations,
				OuterIterations: sol.Iterations,
				PrecondNs:       sol.PrecondNs,
				SpeedupVsSerial: float64(serialNs) / float64(nsPerOp),
				Nnz:             nnz,
				NsPerIter:       perIter(nsPerOp, sol.Iterations),
			})
		}
	}

	// Temporal-sequence records: each standard drifting series measured
	// cold and chained (see SequenceSweep). The chained record's
	// SpeedupVsSerial is the serving payoff of the sequence-session layer;
	// its OuterIterations are deterministic, so -compare gates them like any
	// solve record.
	if matches("sequence/") {
		rows, err := SequenceSweep(ctx, cfg)
		if err != nil {
			return report, fmt.Errorf("perf sequence: %w", err)
		}
		for _, r := range rows {
			report.Records = append(report.Records, PerfRecord{
				Name:            "sequence/" + r.Name + "/cold",
				Procs:           1,
				NsPerOp:         r.ColdNs,
				Iterations:      r.ColdIters,
				OuterIterations: r.ColdIters,
				SpeedupVsSerial: 1,
				Periods:         r.Periods,
				NsPerIter:       perIter(r.ColdNs*int64(r.Periods), r.ColdIters),
			})
			report.Records = append(report.Records, PerfRecord{
				Name:            "sequence/" + r.Name + "/chained",
				Procs:           1,
				NsPerOp:         r.ChainedNs,
				Iterations:      r.ChainedIters,
				OuterIterations: r.ChainedIters,
				SpeedupVsSerial: r.Speedup(),
				Periods:         r.Periods,
				NsPerIter:       perIter(r.ChainedNs*int64(r.Periods), r.ChainedIters),
			})
		}
	}

	// HTTP front-end records: the same serving layer behind the network
	// transport, one record per shard count. NsPerOp here is mean wall per
	// request end to end (TCP + JSON codec + routing + solve); the latency
	// quantiles and the overload probe's rejected fraction ride along.
	if matches("serve/http") {
		hl, err := HTTPLoadSweep(ctx, cfg)
		if err != nil {
			return report, fmt.Errorf("perf serve/http: %w", err)
		}
		for _, r := range hl {
			report.Records = append(report.Records, PerfRecord{
				Name:             "serve/http",
				Procs:            1,
				Shards:           r.Shards,
				NsPerOp:          r.Wall.Nanoseconds() / int64(r.Requests),
				SpeedupVsSerial:  1,
				RequestsPerSec:   r.RequestsPerSec,
				ShapeHitRate:     r.HitRate,
				P50Ms:            float64(r.P50) / float64(time.Millisecond),
				P99Ms:            float64(r.P99) / float64(time.Millisecond),
				RejectedFraction: r.RejectedFraction,
			})
		}
	}
	return report, nil
}

// perIter is the per-iteration wall cost backing PerfRecord.NsPerIter.
func perIter(ns int64, iters int) int64 {
	if iters <= 0 {
		return 0
	}
	return ns / int64(iters)
}
