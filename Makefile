# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race serve-race serve-http-race bench bench-check bench-sparse bench-precond bench-sequence fuzz fmt results check cmds cancel

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the scheduling substrate and everything built on it: the core
# solvers (including the batched equilibration kernel, its radix sorts, and
# the CSR column-mirror scatter whose per-column writes must stay disjoint),
# the baselines, the sparse wire codec, the instrumentation channel (trace
# observers, the atomic counters observer, the parsim cost recorder), and
# the public facade (whose cancellation suite exercises pool teardown under
# contention).
race:
	$(GO) test -race ./internal/parallel/... ./internal/core/... ./internal/equilibrate/... ./internal/sortx/... ./internal/scale/... ./internal/baseline/... ./internal/matio/... ./internal/trace/... ./internal/metrics/... ./internal/parsim/... ./pkg/...
	$(GO) vet ./...

# Build the commands explicitly (CI smoke for the CLI layer).
cmds:
	$(GO) build ./cmd/seasolve ./cmd/seabench ./cmd/seagen ./cmd/seaserved

# The context-cancellation suite under the race detector: mid-solve cancels,
# deadline expiry, and worker-pool leak checks.
cancel:
	$(GO) test -race -count=1 -run 'TestCancel|TestDeadline' ./pkg/sea/

# The concurrent serving layer under the race detector, uncached: shape-pool
# checkout/checkin, admission control, eviction, and Close draining.
serve-race:
	$(GO) test -race -count=1 ./pkg/sea/serve/...

# The network front end under the race detector, uncached: the HTTP
# transport's handler/job-store/shutdown suites (with the shared goroutine
# leak checker) and the end-to-end battery that drives a real listener —
# bit-exactness across shard counts, error mapping, saturation, job
# lifecycle.
serve-http-race:
	$(GO) test -race -count=1 ./pkg/sea/serve/http/ ./internal/testutil/
	$(GO) test -race -count=1 -run 'TestE2EHTTP' .

bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path perf guard: smoke the key benchmarks, regenerate the perf
# records, and diff them against the committed BENCH_sea.json. The compare
# threshold is looser than seabench's 10% default because single-run
# wall-clock numbers on a shared machine are noisy; genuine hot-path
# regressions show up far beyond 25%.
bench-check: cmds
	$(GO) test -run xxx -bench 'Table1_Diagonal500$$|ArenaReuse|KernelColdResolve|KernelWarmResolve' -benchtime 1x .
	$(GO) run ./cmd/seabench -table none -benchjson .bench_check.json
	$(GO) run ./cmd/seabench -compare -threshold 0.25 BENCH_sea.json .bench_check.json; \
	st=$$?; rm -f .bench_check.json; exit $$st

# Sparse-tier perf snapshot: the CSR storage guards (bit-exact equivalence
# with the densified form, steady-state allocation flatness, batch-budget and
# procs independence of the one phase body on dense and CSR input), a
# one-shot smoke of the row/column phase benchmarks on both storages and of
# the kernel's short-segment benchmark (ns per equilibration, cold and warm,
# the layer behind equilibrate.ns_per_equil), plus a
# filtered perf-suite run regenerating just the sparse/ records. The
# committed BENCH_sea.json is regenerated unfiltered by bench-check; this
# target is the quick iteration loop for sparse hot-path work.
bench-sparse: cmds
	$(GO) test -count=1 -run 'TestCSRMatchesDensifiedAcrossProcs|TestCSRSteadyStateAllocs|TestBatched' ./internal/core/
	$(GO) test -run xxx -bench 'RowPhase|ColumnPhase' -benchtime 1x ./internal/core/
	$(GO) test -run xxx -bench BatchShortSegments -benchtime 1x ./internal/equilibrate/
	$(GO) run ./cmd/seabench -table none -benchjson .bench_sparse.json -benchfilter sparse/
	@cat .bench_sparse.json; rm -f .bench_sparse.json

# Preconditioning guards: the exactness, KKT, and iteration-cut properties
# of the warm-start stage, the ISP cell kernels' bit-identity with the
# per-cell reference and a one-shot smoke of their benchmark, plus a
# filtered perf-suite run regenerating just the hard elastic tier's records —
# the spe250/precond row is where the outer-iteration win is gated (seabench
# -compare flags any growth).
bench-precond: cmds
	$(GO) test -count=1 -run 'TestPrecond|TestScalingSolversTracePerSweep|TestCSRMatchesDenseBitwise|TestISPKernelsMatchReference|TestInteriorMask|TestISPNaNTargetNeverConverges|TestISPRejectsNonFinite' ./internal/core/ ./internal/baseline/ ./internal/scale/
	$(GO) test -run xxx -bench BenchmarkISPRun -benchtime 1x ./internal/scale/
	$(GO) run ./cmd/seabench -table none -benchjson .bench_precond.json -benchfilter table5/spe250
	@cat .bench_precond.json; rm -f .bench_precond.json

# Temporal-sequence guard: the session-layer property tests (bit-identity
# without warm duals, iteration savings with them), a one-shot smoke of the
# per-period benchmark (a warm 200×150 session's ns/period and allocs), plus
# the cold-vs-chained sweep at reduced scale. The committed BENCH_sea.json
# carries the full-scale sequence/ records; -compare gates any
# chained-iteration growth.
bench-sequence: cmds
	$(GO) test -count=1 -run 'TestSession|TestServerSession|TestSequence' ./pkg/sea/ ./pkg/sea/serve/ ./pkg/sea/serve/http/
	$(GO) test -run xxx -bench SessionPeriod -benchtime 1x ./pkg/sea/
	$(GO) run ./cmd/seabench -sequence -scale 0.5

# The equilibration kernel, its gather-fused warm build (two solves through
# one batch of States against cold plain-insertion references), the
# breakpoint sorts (span radix and top-bits radix with its repair, against a
# stable comparison sort), then the problem reader: its round-trip
# fixed point and the scanner-versus-encoding/json differential. The
# reader's seeds are multi-KB problem encodings and the fuzzer's input
# minimizer is quadratic in input length, so at its default 60 s per new
# input a 30 s run would spend itself minimizing one; 2 s keeps it fuzzing.
fuzz:
	$(GO) test -fuzz=FuzzKernel -fuzztime=30s ./internal/equilibrate/
	$(GO) test -run '^$$' -fuzz='^FuzzBatchWarm$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/equilibrate/
	$(GO) test -run '^$$' -fuzz='^FuzzSortKeys$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/sortx/
	$(GO) test -run '^$$' -fuzz='^FuzzReadProblem$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/matio/
	$(GO) test -run '^$$' -fuzz='^FuzzDecodeProblem$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/matio/

fmt:
	gofmt -l .

# Regenerate every table and figure of the paper at full scale.
results:
	$(GO) run ./cmd/seabench -table all -scale 1 -bkmax 900 | tee results_full.txt

check: build vet test race serve-race serve-http-race cmds cancel bench-check bench-sparse bench-precond bench-sequence
	@test -z "$$(gofmt -l .)" || (echo "gofmt needed:"; gofmt -l .; exit 1)
