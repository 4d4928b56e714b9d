package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0},
		{10, 0},
		{20, 500},
		{99, 500},
		{100, 900},
		{999, 900},
		{1000, 990},
		{9999, 990},
		{10000, 999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if pm := tailPercentile(c.n); pm > 0 && beyond(c.n, pm) < minBeyond {
			t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, pm/10, beyond(c.n, pm))
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (nearest rank)", got)
	}
	if got := percentile(s, 500); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	d := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	sched := []time.Duration{d(0), d(1), d(2), d(3)}
	sent := []time.Duration{d(0), d(5), d(6), d(7)}
	done := []time.Duration{d(5), d(6), d(7), d(8)}
	errs := []error{nil, nil, nil, errors.New("refused")}
	r := accountOpen(sched, sent, done, errs, d(4))

	wantLat := []float64{5, 5, 5, math.Inf(1)}
	wantLate := []float64{0, 4, 4, 4}
	for i := range sched {
		if math.Abs(r.lat[i]-wantLat[i]) > 1e-9 && !(math.IsInf(wantLat[i], 1) && math.IsInf(r.lat[i], 1)) {
			t.Errorf("lat[%d] = %v, want %v", i, r.lat[i], wantLat[i])
		}
		if math.Abs(r.late[i]-wantLate[i]) > 1e-9 {
			t.Errorf("late[%d] = %v, want %v", i, r.late[i], wantLate[i])
		}
	}
	if r.failed != 1 {
		t.Errorf("failed = %d, want 1", r.failed)
	}
	// When request 1 went out at 5 ms, requests 2 and 3 were already due.
	if r.backlogMax != 2 {
		t.Errorf("backlogMax = %d, want 2", r.backlogMax)
	}
	if r.backlogEnd != 3 {
		t.Errorf("backlogEnd = %d, want 3 (sent after the 4 ms window)", r.backlogEnd)
	}
	if r.keepsUp() {
		t.Error("a loop with a failure keeps up")
	}
}

func TestOpenLoopChargesQueueingToLaterRequests(t *testing.T) {
	// Three requests due at once on one connection, each taking 2 ms: the
	// third waits for the first two, and its latency counts that wait.
	sched := make([]time.Duration, 3)
	r := openLoop(sched, time.Millisecond, func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if r.lat[2] < 6 {
		t.Errorf("third request latency %.2f ms, want ≥ 6 ms from its due time", r.lat[2])
	}
	if r.late[2] < 4 {
		t.Errorf("third request lateness %.2f ms, want ≥ 4 ms", r.late[2])
	}
}

func TestBisectReturnsHighestPassingProbe(t *testing.T) {
	var probes []float64
	got := bisect(0, 1000, 6, func(rate float64) bool {
		probes = append(probes, rate)
		return rate <= 700
	})
	if got != 687.5 {
		t.Errorf("bisect = %v, want 687.5 (probes %v)", got, probes)
	}
	if len(probes) != 6 {
		t.Errorf("%d probes, want 6", len(probes))
	}
	if got := bisect(0, 1000, 6, func(float64) bool { return false }); got != 0 {
		t.Errorf("bisect with no passing probe = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	parent := span{Op: 1, ID: 1, Name: "root", Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},   // overlaps the first: 10–40 covered once
		{Start: 90, End: 120},  // clipped to the parent: 90–100
		{Start: 150, End: 160}, // outside the parent
	}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("selfTime = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}

	spans := append([]span{parent}, span{Op: 1, ID: 2, Parent: 1, Name: "child", Start: 10, End: 30})
	times := aggregate(spans)[1]
	if times.self["root"] != 80 || times.dur["child"] != 20 || times.self["child"] != 20 {
		t.Errorf("aggregate: self=%v dur=%v", times.self, times.dur)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs both passes of every workload on small inputs and checks
// that each reports every metric BENCHMARK.json names, with its unit, and
// that no operation failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if len(names) != len(bf.Workloads) {
		t.Fatalf("bench runs workloads %v, BENCHMARK.json lists %d", names, len(bf.Workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, w.Name, names[i])
		}
	}

	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-smoke"}, &stdout, &stderr)
	t.Logf("smoke run took %v", time.Since(start))
	if code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if want := 2 * 2 * len(names); len(lines) != want {
		t.Fatalf("%d output lines, want %d (a description and a result per pass)", len(lines), want)
	}
	for i := 0; i < len(lines); i += 2 {
		var m meta
		var res result
		if err := json.Unmarshal(lines[i], &m); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(lines[i+1], &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", m.Workload, m.Trace, res.Correct, res.Failed, res.Attempted)
		}
		want := bf.EndToEnd
		if m.Trace {
			want = bf.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", m.Workload, m.Trace, len(res.Metrics), len(want))
		}
		for _, w := range want {
			got, ok := res.Metrics[w.Name]
			if !ok {
				t.Errorf("%s trace=%v: metric %s missing", m.Workload, m.Trace, w.Name)
				continue
			}
			if got.Unit != w.Unit {
				t.Errorf("%s: metric %s unit %q, BENCHMARK.json %q", m.Workload, w.Name, got.Unit, w.Unit)
			}
		}
	}
}
