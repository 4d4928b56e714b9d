package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sea/internal/experiments"
)

func writeReport(t *testing.T, dir, name string, recs []experiments.PerfRecord) string {
	t.Helper()
	return writeReportCPUs(t, dir, name, 1, recs)
}

// writeReportCPUs writes a report whose header says it was measured on a
// host with numCPU CPUs.
func writeReportCPUs(t *testing.T, dir, name string, numCPU int, recs []experiments.PerfRecord) string {
	t.Helper()
	rep := experiments.PerfReport{GoMaxProcs: numCPU, NumCPU: numCPU, Scale: 1, Records: recs}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func rec(name string, procs int, ns int64) experiments.PerfRecord {
	return experiments.PerfRecord{Name: name, Procs: procs, NsPerOp: ns, SpeedupVsSerial: 1}
}

// TestCompareKeysByNameAndProcs checks that records are matched per
// (name, procs) pair: a regression at one worker count must be flagged even
// when the same instance is fine at another.
func TestCompareKeysByNameAndProcs(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []experiments.PerfRecord{
		rec("table1/diagonal500", 1, 1000),
		rec("table1/diagonal500", 4, 400),
	})
	newPath := writeReport(t, dir, "new.json", []experiments.PerfRecord{
		rec("table1/diagonal500", 1, 1010), // within threshold
		rec("table1/diagonal500", 4, 900),  // > 10% slower at procs=4
	})
	if got := runCompare(oldPath, newPath, 0.10); got != 1 {
		t.Fatalf("runCompare = %d regressions, want 1 (the procs=4 record)", got)
	}
}

func TestCompareNoRegressions(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []experiments.PerfRecord{
		rec("a", 1, 1000),
		rec("a", 2, 600),
	})
	newPath := writeReport(t, dir, "new.json", []experiments.PerfRecord{
		rec("a", 1, 950),
		rec("a", 2, 610),
	})
	if got := runCompare(oldPath, newPath, 0.10); got != 0 {
		t.Fatalf("runCompare = %d regressions, want 0", got)
	}
}

// TestCompareSkipsProcsBeyondHost: the perf suite times only the worker
// counts its host has cores for, so an old record whose procs exceeds the new
// report's num_cpu is skipped rather than counted as missing — while a
// vanished record the host could have timed still fails the gate.
func TestCompareSkipsProcsBeyondHost(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReportCPUs(t, dir, "old.json", 8, []experiments.PerfRecord{
		rec("a", 1, 1000),
		rec("a", 2, 600),
		rec("a", 4, 400),
		rec("a", 8, 300),
	})
	newPath := writeReportCPUs(t, dir, "new.json", 4, []experiments.PerfRecord{
		rec("a", 1, 1000),
		rec("a", 4, 400),
	})
	if got := runCompare(oldPath, newPath, 0.10); got != 1 {
		t.Fatalf("runCompare = %d failures, want 1 (procs=2 missing; procs=8 skipped on a 4-CPU host)", got)
	}
	onePath := writeReportCPUs(t, dir, "one.json", 1, []experiments.PerfRecord{
		rec("a", 1, 1000),
	})
	if got := runCompare(oldPath, onePath, 0.10); got != 0 {
		t.Fatalf("runCompare = %d failures, want 0 (every procs > 1 record skipped on a 1-CPU host)", got)
	}
}

// TestCompareNewAndMissingRecords: a key present only in the new file is
// benign (coverage grew), but a key that vanished from the new file counts
// as a failure so the perf gate cannot rot by silently dropping benchmarks.
func TestCompareNewAndMissingRecords(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []experiments.PerfRecord{
		rec("a", 1, 1000),
		rec("vanished", 1, 500),
	})
	newPath := writeReport(t, dir, "new.json", []experiments.PerfRecord{
		rec("a", 1, 1000),
		rec("brand-new", 8, 125),
	})
	if got := runCompare(oldPath, newPath, 0.10); got != 1 {
		t.Fatalf("runCompare = %d failures, want 1 (the missing record)", got)
	}
}

// TestCompareNewOnlyRecordsPass: growth alone must not fail the gate.
func TestCompareNewOnlyRecordsPass(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []experiments.PerfRecord{
		rec("a", 1, 1000),
	})
	newPath := writeReport(t, dir, "new.json", []experiments.PerfRecord{
		rec("a", 1, 1000),
		rec("sparse/diagonal10k", 1, 125),
	})
	if got := runCompare(oldPath, newPath, 0.10); got != 0 {
		t.Fatalf("runCompare = %d failures, want 0 for new-only records", got)
	}
}

func recIters(name string, ns int64, iters int) experiments.PerfRecord {
	r := rec(name, 1, ns)
	r.OuterIterations = iters
	return r
}

// TestCompareIterationRegression: outer iterations are deterministic, so any
// growth on a record both files annotate is a convergence regression even
// when the wall time stays within the threshold.
func TestCompareIterationRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []experiments.PerfRecord{
		recIters("table5/spe250/precond", 1000, 66),
	})
	newPath := writeReport(t, dir, "new.json", []experiments.PerfRecord{
		recIters("table5/spe250/precond", 1010, 90), // time fine, iters grew
	})
	if got := runCompare(oldPath, newPath, 0.10); got != 1 {
		t.Fatalf("runCompare = %d failures, want 1 (the iteration regression)", got)
	}
}

// TestCompareIterationBackCompat: old baselines written before the
// outer_iterations field must not trip the iteration gate, and equal or
// improved counts must pass.
func TestCompareIterationBackCompat(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []experiments.PerfRecord{
		rec("a", 1, 1000), // no iteration annotation
		recIters("b", 1000, 50),
	})
	newPath := writeReport(t, dir, "new.json", []experiments.PerfRecord{
		recIters("a", 1000, 999), // old side unannotated: exempt
		recIters("b", 1000, 50),  // unchanged: ok
	})
	if got := runCompare(oldPath, newPath, 0.10); got != 0 {
		t.Fatalf("runCompare = %d failures, want 0", got)
	}
}

// TestComparePrecondSweepsUngated: the "/precond" records' warm-start sweeps
// print beside the outer iterations but gate nothing — a stage that runs to
// convergence trades outer iterations for sweeps.
func TestComparePrecondSweepsUngated(t *testing.T) {
	dir := t.TempDir()
	withSweeps := func(iters, sweeps int) experiments.PerfRecord {
		r := recIters("table5/spe250/precond", 1000, iters)
		r.PrecondSweeps = sweeps
		return r
	}
	oldPath := writeReport(t, dir, "old.json", []experiments.PerfRecord{withSweeps(66, 150)})
	newPath := writeReport(t, dir, "new.json", []experiments.PerfRecord{withSweeps(1, 219)})
	if got := runCompare(oldPath, newPath, 0.10); got != 0 {
		t.Fatalf("runCompare = %d failures, want 0 (sweeps are not gated)", got)
	}
}

func recShards(name string, procs, shards int, ns int64) experiments.PerfRecord {
	r := rec(name, procs, ns)
	r.Shards = shards
	return r
}

// TestCompareKeysByShards checks that the serve/http records are matched per
// (name, procs, shards) triple: a regression at one shard count must be
// flagged even when the same record is fine at another, and same-shards
// pairs must match across files.
func TestCompareKeysByShards(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []experiments.PerfRecord{
		recShards("serve/http", 8, 1, 1000),
		recShards("serve/http", 8, 2, 1000),
		recShards("serve/http", 8, 4, 1000),
	})
	newPath := writeReport(t, dir, "new.json", []experiments.PerfRecord{
		recShards("serve/http", 8, 1, 1020), // within threshold
		recShards("serve/http", 8, 2, 1500), // > 10% slower at shards=2
		recShards("serve/http", 8, 4, 990),
	})
	if got := runCompare(oldPath, newPath, 0.10); got != 1 {
		t.Fatalf("runCompare = %d regressions, want 1 (the shards=2 record)", got)
	}
}

func recSequence(name string, periods int, ns int64, iters int) experiments.PerfRecord {
	r := recIters(name, ns, iters)
	r.Periods = periods
	return r
}

// TestCompareSequenceRecords: the temporal "sequence/" records ride the same
// gate — chained iteration growth is a convergence regression, and a chained
// record that vanishes (e.g. the sweep silently dropped a spec) is a failure.
func TestCompareSequenceRecords(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []experiments.PerfRecord{
		recSequence("sequence/monthly-40x30/cold", 12, 9000, 600),
		recSequence("sequence/monthly-40x30/chained", 12, 5000, 280),
	})
	newPath := writeReport(t, dir, "new.json", []experiments.PerfRecord{
		recSequence("sequence/monthly-40x30/cold", 12, 9100, 600),
		recSequence("sequence/monthly-40x30/chained", 12, 5050, 420), // warm start decayed
	})
	if got := runCompare(oldPath, newPath, 0.10); got != 1 {
		t.Fatalf("runCompare = %d failures, want 1 (the chained iteration regression)", got)
	}

	missingPath := writeReport(t, dir, "missing.json", []experiments.PerfRecord{
		recSequence("sequence/monthly-40x30/cold", 12, 9000, 600),
	})
	if got := runCompare(oldPath, missingPath, 0.10); got != 1 {
		t.Fatalf("runCompare = %d failures, want 1 (the vanished chained record)", got)
	}
}
