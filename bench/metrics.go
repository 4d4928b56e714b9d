package main

import (
	"fmt"
	"io"
	"math"
	"sync"
)

// metricSpec names one reported metric and its unit. The names, units and
// directions are also listed in BENCHMARK.json; the smoke test keeps the two
// in step. A metric of kind timed is a time and is reported at the reference
// speed (ref.go); one of kind rate is a rate and scaled the other way.
type metricSpec struct {
	name, unit string
	kind       metricKind
}

type metricKind int

const (
	counted metricKind = iota // a count, size or ratio: reported as measured
	timed
	rate
)

// endToEnd are the metrics a user of the program sees. The untraced run
// reports every one on every workload.
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms", timed},
	{"latency_p90_ms", "ms", timed},
	{"throughput_ops_s", "ops/s", rate},
	{"alloc_mb_per_op", "MB", counted},
	{"setup_s", "s", timed},
}

// perLayer are the metrics of single layers, named after the module that
// owns the layer. The traced run reports every one on every workload; a
// layer the workload never reaches reports 0.
var perLayer = []metricSpec{
	{"http.decode_us", "us", timed},
	{"http.validate_us", "us", timed},
	{"http.encode_us", "us", timed},
	{"http.self_us", "us", timed},
	{"http.req_bytes", "bytes", counted},
	{"http.non200_frac", "fraction", counted},
	{"http.max_rate_rps", "req/s", rate},
	{"serve.submit_us", "us", timed},
	{"serve.queue_wait_us", "us", timed},
	{"serve.solve_us", "us", timed},
	{"serve.self_us", "us", timed},
	{"serve.shape_hit_rate", "fraction", counted},
	{"serve.evictions_per_kreq", "count", counted},
	{"serve.rejected_frac", "fraction", counted},
	{"sea.session_self_us", "us", timed},
	{"sea.iterations_per_period", "count", counted},
	{"sea.first_period_ms", "ms", timed},
	{"core.setup_ms", "ms", timed},
	{"core.row_ms", "ms", timed},
	{"core.col_ms", "ms", timed},
	{"core.check_ms", "ms", timed},
	{"core.outer_iterations", "count", counted},
	{"core.allocs_per_solve", "count", counted},
	{"core.trace_overhead", "ratio", counted},
	{"equilibrate.count_per_solve", "count", counted},
	{"equilibrate.ops_per_solve", "count", counted},
	{"equilibrate.ns_per_equil", "ns", timed},
	{"equilibrate.ns_per_cell_sweep", "ns", timed},
	{"parallel.speedup_p2", "ratio", counted},
	{"parallel.phase_eff_p2", "ratio", counted},
	{"parallel.serial_share_p2", "fraction", counted},
	{"scale.precond_ms", "ms", timed},
	{"scale.precond_share", "fraction", counted},
	{"runtime.gc_per_op", "count", counted},
	{"loadgen.late_p99_ms", "ms", counted},
	{"loadgen.backlog_max", "count", counted},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints for a workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates one workload run: every checked operation, failures, and
// the metrics with their sample counts. It is safe for concurrent use.
type tally struct {
	specs []metricSpec
	log   io.Writer

	mu        sync.Mutex
	attempted int
	failed    int
	values    map[string]float64 // as measured
	reported  map[string]float64 // already scaled to the reference speed
	samples   map[string]int
}

func newTally(specs []metricSpec, log io.Writer) *tally {
	return &tally{specs: specs, log: log, values: map[string]float64{}, reported: map[string]float64{}, samples: map[string]int{}}
}

// check counts one operation and, when err is non-nil, its failure. The
// first few failures are logged.
func (t *tally) check(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(t.log, "bench: failed operation: %v\n", err)
	}
}

// set records a metric measured over n samples.
func (t *tally) set(name string, v float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.values[name] = v
	t.samples[name] = n
}

// setScaled records a time or rate measured over n samples together with
// the value to report, which the caller scaled to the reference speed.
func (t *tally) setScaled(name string, measured, reported float64, n int) {
	t.set(name, measured, n)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reported[name] = reported
}

// counts returns the sample count of each of the tally's metrics.
func (t *tally) counts() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.specs))
	for _, s := range t.specs {
		out[s.name] = t.samples[s.name]
	}
	return out
}

// measured returns each of the tally's metrics as measured, before any
// scaling to the reference speed.
func (t *tally) measured() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.specs))
	for _, s := range t.specs {
		out[s.name] = t.values[s.name]
	}
	return out
}

// result assembles the result line. A time or rate set without its scaled
// value is scaled to the reference speed by speed, the reference's nominal
// time over its measured one (ref.go). Every metric of the tally's list must
// have been set to a finite value.
func (t *tally) result(speed float64) (result, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	res := result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(t.specs)),
	}
	for _, s := range t.specs {
		v, ok := t.values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured (value %v)", s.name, v)
		}
		if r, ok := t.reported[s.name]; ok {
			v = r
		} else if s.kind == timed {
			v *= speed
		} else if s.kind == rate {
			v /= speed
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}
