package experiments

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"testing"
)

// smallCfg shrinks every experiment far enough for fast CI runs.
func smallCfg() Config {
	return Config{Scale: 0.04, Procs: 1}
}

func TestTable1Small(t *testing.T) {
	rows, err := Table1(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Seconds < 0 || r.Iterations <= 0 || r.Nonzeros != r.Size*r.Size {
			t.Errorf("bad row: %+v", r)
		}
	}
	// Sizes increase down the table.
	for i := 1; i < len(rows); i++ {
		if rows[i].Size <= rows[i-1].Size {
			t.Errorf("sizes not increasing: %+v", rows)
		}
	}
}

func TestTable2Small(t *testing.T) {
	rows, err := Table2(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Dataset] = true
	}
	if !names["IOC72a"] || !names["IO72c"] {
		t.Errorf("missing datasets: %v", names)
	}
}

func TestTable3Small(t *testing.T) {
	rows, err := Table3(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	if rows[0].Dataset != "STONE" || rows[0].Accounts != 5 || rows[0].Transactions != 12 {
		t.Errorf("STONE row wrong: %+v", rows[0])
	}
}

func TestTable4Small(t *testing.T) {
	rows, err := Table4(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	// The paper's qualitative finding: the b (large-growth) examples need
	// at least as many iterations as the a examples; the c (perturbed)
	// examples are the fastest of each period.
	byName := map[string]int{}
	for _, r := range rows {
		byName[r.Dataset] = r.Iterations
	}
	for _, period := range []string{"5560", "6570", "7580"} {
		a, b, c := byName["MIG"+period+"a"], byName["MIG"+period+"b"], byName["MIG"+period+"c"]
		// The ordering is statistical (growth factors are random draws), so
		// allow slack: b within 30% of a from below, c the clear fastest.
		if float64(b) < 0.7*float64(a) {
			t.Errorf("period %s: b=%d iterations much below a=%d", period, b, a)
		}
		if c > a {
			t.Errorf("period %s: perturbed c=%d iterations > a=%d", period, c, a)
		}
	}
}

func TestTable5Small(t *testing.T) {
	rows, err := Table5(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Variables != r.Markets*r.Markets {
			t.Errorf("variables mismatch: %+v", r)
		}
	}
}

func TestTable6HalfScale(t *testing.T) {
	// The simulated machine's fork/join overhead is calibrated for
	// paper-scale problems; tiny CI instances would be overhead-dominated,
	// so this test runs at half scale where the paper's shape must appear.
	rows, err := Table6(context.Background(), Config{Scale: 0.5, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 4 examples × 3 processor counts.
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	for _, r := range rows {
		if r.Speedup < 1 || r.Speedup > float64(r.N) {
			t.Errorf("implausible speedup: %+v", r)
		}
		if r.Efficiency <= 0 || r.Efficiency > 1 {
			t.Errorf("implausible efficiency: %+v", r)
		}
	}
	// Speedup grows (or saturates, at sub-paper scale) with N.
	for i := 1; i < len(rows); i++ {
		if rows[i].Example == rows[i-1].Example && rows[i].Speedup < 0.95*rows[i-1].Speedup {
			t.Errorf("speedup collapsed with N: %+v then %+v", rows[i-1], rows[i])
		}
	}
}

func TestTable7Small(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxBKDim = 100 // keep B-K to the tiniest sizes in CI
	rows, err := Table7(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	bkRan := 0
	for _, r := range rows {
		if r.SEASeconds < 0 || r.RCSeconds < 0 {
			t.Errorf("negative time: %+v", r)
		}
		if !math.IsNaN(r.BKSeconds) {
			bkRan++
		}
	}
	if bkRan == 0 {
		t.Error("B-K never ran")
	}
}

func TestTable8Small(t *testing.T) {
	cfg := smallCfg()
	rows, err := Table8(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.GDim != 2304 {
			t.Errorf("G order %d, want 2304", r.GDim)
		}
		if r.Outer <= 0 || r.Inner < r.Outer {
			t.Errorf("iteration counts wrong: %+v", r)
		}
	}
}

func TestTable9HalfScale(t *testing.T) {
	rows, err := Table9(context.Background(), Config{Scale: 0.5, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// The paper's headline: SEA speedups exceed RC's at each N.
	sea := map[int]float64{}
	rc := map[int]float64{}
	for _, r := range rows {
		if r.Example == "SEA" {
			sea[r.N] = r.Speedup
		} else {
			rc[r.N] = r.Speedup
		}
	}
	for _, n := range []int{2, 4} {
		if sea[n] < rc[n] {
			t.Errorf("N=%d: SEA speedup %.2f < RC %.2f; paper has SEA ahead", n, sea[n], rc[n])
		}
	}
}

func TestOpsModelSmall(t *testing.T) {
	cfg := Config{Scale: 0.25, Procs: 1}
	rows, err := OpsModel(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// The measured/model ratio should be stable across sizes (within 3×),
	// confirming the O(T̄·n²·log n) scaling.
	for _, r := range rows {
		if r.Ratio <= 0 {
			t.Fatalf("bad ratio: %+v", r)
		}
	}
	lo, hi := rows[0].Ratio, rows[0].Ratio
	for _, r := range rows {
		if r.Ratio < lo {
			lo = r.Ratio
		}
		if r.Ratio > hi {
			hi = r.Ratio
		}
	}
	if hi/lo > 3 {
		t.Errorf("op-count ratio drifts %gx across sizes: %+v", hi/lo, rows)
	}
}

// TestSequenceSweepSmall: the temporal sweep produces one row per standard
// spec, and the chained pass must spend strictly fewer total iterations than
// the cold pass — the property the sequence/ perf records gate.
func TestSequenceSweepSmall(t *testing.T) {
	cfg := Config{Scale: 0.2, Procs: 1}
	rows, err := SequenceSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("got %d rows, want at least 2", len(rows))
	}
	for _, r := range rows {
		if r.Periods <= 0 || r.ColdNs <= 0 || r.ChainedNs <= 0 {
			t.Fatalf("bad row: %+v", r)
		}
		if r.ChainedIters >= r.ColdIters {
			t.Fatalf("%s: chained pass saved nothing (%d chained vs %d cold iterations)",
				r.Name, r.ChainedIters, r.ColdIters)
		}
		if r.IterSavedPct() <= 0 || r.IterSavedPct() >= 100 {
			t.Fatalf("%s: IterSavedPct = %g", r.Name, r.IterSavedPct())
		}
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{Scale: 0.5}
	if c.dim(100) != 50 {
		t.Errorf("dim(100) = %d", c.dim(100))
	}
	if c.dim(4) != 4 {
		t.Errorf("dim floor broken: %d", c.dim(4))
	}
	bad := Config{Scale: 7}
	if bad.dim(100) != 100 {
		t.Errorf("out-of-range scale should act as 1: %d", bad.dim(100))
	}
	if (Config{}).eps(0.01) != 0.01 {
		t.Error("eps default broken")
	}
	if (Config{Epsilon: 1e-5}).eps(0.01) != 1e-5 {
		t.Error("eps override broken")
	}
}

// TestTable6EnhancedImproves: parallelizing the convergence check (the
// paper's suggested enhancement) must not hurt, and should help the
// examples whose serial share is largest, at the highest processor count.
func TestTable6EnhancedImproves(t *testing.T) {
	cfg := Config{Scale: 0.5, Procs: 1}
	plain, err := Table6(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	enh, err := Table6Enhanced(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(enh) {
		t.Fatalf("row counts differ: %d vs %d", len(plain), len(enh))
	}
	improvedSomewhere := false
	for i := range plain {
		if enh[i].Example != plain[i].Example || enh[i].N != plain[i].N {
			t.Fatalf("row order differs at %d", i)
		}
		if enh[i].Speedup < plain[i].Speedup*0.98 {
			t.Errorf("%s N=%d: enhanced %.3f worse than plain %.3f",
				plain[i].Example, plain[i].N, enh[i].Speedup, plain[i].Speedup)
		}
		if enh[i].Speedup > plain[i].Speedup*1.02 {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Error("enhancement never improved any example")
	}
}

func TestGrowthSweep(t *testing.T) {
	rows, err := GrowthSweep(context.Background(), Config{Scale: 1, Procs: 1, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	// Difficulty must grow with the growth factor: the largest growth needs
	// strictly more iterations than zero growth.
	if rows[len(rows)-1].Iterations <= rows[0].Iterations {
		t.Errorf("200%% growth (%d iters) not harder than 0%% (%d)",
			rows[len(rows)-1].Iterations, rows[0].Iterations)
	}
	// And roughly monotone: each point at least half its predecessor.
	for i := 1; i < len(rows); i++ {
		if float64(rows[i].Iterations) < 0.5*float64(rows[i-1].Iterations) {
			t.Errorf("iterations dropped sharply at %d%%: %+v", rows[i].GrowthPct, rows)
		}
	}
}

func TestRelaxationAblation(t *testing.T) {
	rows, err := RelaxationAblation(context.Background(), Config{Scale: 0.5, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// Smaller steps cannot need fewer half-sweeps.
	for i := 1; i < len(rows); i++ {
		if rows[i].Inner < rows[i-1].Inner {
			t.Errorf("rho=%.2f used fewer half-sweeps (%d) than rho=%.2f (%d)",
				rows[i].Rho, rows[i].Inner, rows[i-1].Rho, rows[i-1].Inner)
		}
	}
}

// TestPerfSuiteMeasuredOnly: the perf suite writes only records it timed —
// one per worker count in {1, 2, 4, 8} the host has cores for, none beyond —
// and its JSON carries no modelled or ablation fields.
func TestPerfSuiteMeasuredOnly(t *testing.T) {
	rep, err := PerfSuite(context.Background(), Config{Scale: 0.05, BenchFilter: "table1/diagonal500"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumCPU != runtime.NumCPU() {
		t.Errorf("num_cpu = %d, want %d", rep.NumCPU, runtime.NumCPU())
	}
	timed := map[int]bool{}
	for _, r := range rep.Records {
		if r.Procs > runtime.NumCPU() {
			t.Errorf("%s procs=%d exceeds the host's %d CPUs", r.Name, r.Procs, runtime.NumCPU())
		}
		if r.Name == "table1/diagonal500" {
			timed[r.Procs] = true
		}
	}
	for _, procs := range perfProcs {
		if procs <= runtime.NumCPU() && !timed[procs] {
			t.Errorf("no table1/diagonal500 record at procs=%d", procs)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Records []map[string]json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, r := range doc.Records {
		for _, key := range []string{"simulated", "warmstart_ablation"} {
			if _, ok := r[key]; ok {
				t.Errorf("record %s carries %q", r["name"], key)
			}
		}
	}
}
