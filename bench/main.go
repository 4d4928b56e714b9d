// Command bench is the repository benchmark. It drives the program only
// through its public functions (pkg/sea, pkg/sea/serve, pkg/sea/serve/http,
// internal/matio and the KKT check), times every call from outside, checks
// every answer outside the timed interval, and prints one JSON result line
// per workload as the last line of its output:
//
//	go run . -workload dense-cold -seed 1 -seconds 20 -trace 0
//
// -trace 0 runs the untraced pass and reports the end-to-end metrics; -trace 1
// runs the traced pass and reports the per-layer metrics. README.md describes
// the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runTimeout bounds a whole invocation. Operations still running when it
// expires fail with the context's error.
const runTimeout = 170 * time.Second

// smokeSeconds is the measured length of each pass in a smoke run.
const smokeSeconds = 0.15

// env is one workload pass's configuration and accumulators.
type env struct {
	seed    uint64
	seconds time.Duration
	smoke   bool
	log     io.Writer
	t       *tally
	ref     *refClock
	rec     *recorder // non-nil on a traced pass
}

// Every pass runs its operations one at a time on one processor
// (GOMAXPROCS 1, procs 1, one client). On a shared 2-vCPU host a second
// processor's share of the host comes and goes, and wall times that depend
// on it spread far more than those of one. The traced pass runs extra
// solves at parallelProcs for the parallel metrics, with GOMAXPROCS raised
// to match for just those solves.
const parallelProcs = 2

// enough reports whether a closed loop that started at start has run for
// the run length and, outside a smoke run, has the samples the percentile
// rule needs for the p90.
func (e *env) enough(start time.Time, n int) bool {
	return time.Since(start) >= e.seconds && (e.smoke || tailPercentile(n) >= 900)
}

// share returns a fraction of the run length.
func (e *env) share(f float64) time.Duration {
	return time.Duration(f * float64(e.seconds))
}

type workload struct {
	name  string
	run   func(context.Context, *env) error // untraced: end-to-end metrics
	trace func(context.Context, *env) error // traced: per-layer metrics
}

func workloads() []workload {
	var out []workload
	for _, w := range solveWorkloads {
		out = append(out, workload{w.name, w.run, w.trace})
	}
	return append(out,
		workload{"sequence-warm", runSequence, traceSequence},
		workload{"http-mixed", runHTTP, traceHTTP},
	)
}

// meta describes a result line: what ran, where, and how many samples each
// metric rests on.
type meta struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go"`
	Samples    map[string]int `json:"samples"`
	// RefMs is the pass's median reference-kernel time and RefSamples
	// their number; Measured holds every metric before scaling to the
	// reference speed.
	RefMs      float64            `json:"ref_ms"`
	RefSamples int                `json:"ref_samples"`
	Measured   map[string]float64 `json:"measured"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of every generated input (1 is the default; 2 is kept back for checking claims)")
	seconds := fs.Float64("seconds", 20, "measured length of the pass, in seconds")
	traced := fs.Int("trace", 0, "0 runs the untraced pass (end-to-end metrics), 1 the traced pass (per-layer metrics)")
	spans := fs.String("spans", "", "with -trace 1, write each workload's spans as JSONL into this directory")
	smoke := fs.Bool("smoke", false, "run both passes of every workload on small inputs, briefly")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-spans dir] [-smoke]")
		return 2
	}
	var list []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			list = append(list, w)
		}
	}
	if len(list) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	passes := []bool{*traced == 1}
	if *smoke {
		passes = []bool{false, true}
		*seconds = smokeSeconds
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	code := 0
	for _, w := range list {
		for _, tr := range passes {
			e := &env{
				seed:    *seed,
				seconds: time.Duration(*seconds * float64(time.Second)),
				smoke:   *smoke,
				log:     stderr,
				ref:     &refClock{},
			}
			res, err := runPass(ctx, w, e, tr, *spans)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 2
			}
			m := meta{
				Workload: w.name, Seed: e.seed, Seconds: *seconds, Trace: tr,
				NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
				GoVersion: runtime.Version(), Samples: e.t.counts(),
				RefMs: e.ref.medianMs(), RefSamples: len(e.ref.ms), Measured: e.t.measured(),
			}
			report(stderr, m, res)
			for _, v := range []any{m, res} {
				line, err := json.Marshal(v)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 2
				}
				fmt.Fprintf(stdout, "%s\n", line)
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// runPass runs one pass of w and returns its result line.
func runPass(ctx context.Context, w workload, e *env, traced bool, spansDir string) (result, error) {
	runtime.GC() // start every pass from a collected heap
	if !traced {
		e.t = newTally(endToEnd, e.log)
		if err := w.run(ctx, e); err != nil {
			return result{}, err
		}
		return e.t.result(e.speed())
	}
	e.t = newTally(perLayer, e.log)
	for _, s := range perLayer {
		e.t.set(s.name, 0, 0) // a layer the workload never reaches reports 0
	}
	e.rec = newRecorder()
	if err := w.trace(ctx, e); err != nil {
		return result{}, err
	}
	if spansDir != "" {
		if err := e.rec.writeJSONL(spansDir, w.name); err != nil {
			return result{}, err
		}
	}
	return e.t.result(e.speed())
}

// speed is the factor that scales the traced pass's times to the reference
// speed: one factor for the whole pass, from the median reference time.
func (e *env) speed() float64 { return refNominalMs / e.ref.medianMs() }

// report prints a pass's metrics for people, one per line, to w.
func report(w io.Writer, m meta, res result) {
	fmt.Fprintf(w, "%s seed=%d trace=%v: attempted=%d failed=%d\n", m.Workload, m.Seed, m.Trace, res.Attempted, res.Failed)
	specs := endToEnd
	if m.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(w, "  %-30s %14.6g %-8s n=%d\n", s.name, res.Metrics[s.name].Value, s.unit, m.Samples[s.name])
	}
}

// memMark is a snapshot of the allocator's cumulative counters.
type memMark struct {
	bytes, mallocs uint64
	gcs            uint32
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{bytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC}
}

func (m memMark) sub(o memMark) memMark {
	return memMark{bytes: m.bytes - o.bytes, mallocs: m.mallocs - o.mallocs, gcs: m.gcs - o.gcs}
}

// setupReps is how many times an untraced pass sets its workload up;
// setup_s is the median.
const setupReps = 5

// timeSetup runs setup reps times and records the median wall time as
// setup_s. Setup returns the checks of the operations it ran, which are made
// after its timer stops.
func (e *env) timeSetup(reps int, setup func() (check func(), err error)) error {
	times := make([]float64, 0, reps)
	ends := make([]time.Time, 0, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		check, err := setup()
		end := time.Now()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, end.Sub(start).Seconds())
		ends = append(ends, end)
		check()
		e.ref.sample()
	}
	e.t.setScaled("setup_s", median(times), median(e.ref.scaled(times, ends)), reps)
	return nil
}

// reportOps records a closed loop's end-to-end metrics from its operations'
// latencies in milliseconds, the instants they ended, and the bytes the loop
// allocated. Each latency is scaled to the reference speed at its own end.
func (e *env) reportOps(lat []float64, ends []time.Time, allocBytes uint64) {
	n := len(lat)
	raw, scaled := sortedCopy(lat), sortedCopy(e.ref.scaled(lat, ends))
	e.t.setScaled("latency_p50_ms", percentile(raw, 500), percentile(scaled, 500), n)
	e.t.setScaled("latency_p90_ms", percentile(raw, 900), percentile(scaled, 900), n)
	e.t.setScaled("throughput_ops_s", 1000/mean(raw), 1000/mean(scaled), n)
	e.t.set("alloc_mb_per_op", float64(allocBytes)/1e6/float64(n), n)
}
