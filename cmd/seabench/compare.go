package main

import (
	"encoding/json"
	"fmt"
	"os"

	"sea/internal/experiments"
	"sea/internal/report"
)

// runCompare implements `seabench -compare old.json new.json`: it prints a
// per-record delta table between two PerfReports (as written by -benchjson)
// keyed by (name, procs, shards) and returns the number of failures — the
// regressions (records whose ns/op grew by more than threshold, a fraction,
// e.g. 0.10 for 10%) plus the missing records. A key present only in the new
// file prints an explicit "new" line and is benign — coverage grew. A key
// present only in the old file prints an explicit "missing" line and counts
// as a failure: a benchmark that silently disappears is how perf gates rot.
// The one exception is an old record whose procs exceeds the new report's
// num_cpu: the perf suite times only the worker counts its host has cores
// for, so that record prints "skip" and is not counted.
func runCompare(oldPath, newPath string, threshold float64) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seabench: -compare: %v\n", err)
		return 1
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seabench: -compare: %v\n", err)
		return 1
	}

	type key struct {
		name   string
		procs  int
		shards int
	}
	oldBy := map[key]experiments.PerfRecord{}
	for _, r := range oldRep.Records {
		oldBy[key{r.Name, r.Procs, r.Shards}] = r
	}

	regressions := 0
	var rows [][]string
	seen := map[key]bool{}
	for _, nr := range newRep.Records {
		k := key{nr.Name, nr.Procs, nr.Shards}
		seen[k] = true
		or, ok := oldBy[k]
		if !ok {
			rows = append(rows, []string{recordLabel(nr), fmt.Sprint(nr.Procs),
				"-", fmtNs(nr.NsPerOp), "-", fmtIterPair(0, nr.OuterIterations),
				fmtSpeedup(nr.SpeedupVsSerial), "new"})
			fmt.Fprintf(os.Stderr, "seabench: new record %s procs=%d shards=%d (absent from %s)\n",
				nr.Name, nr.Procs, nr.Shards, oldPath)
			continue
		}
		delta := float64(nr.NsPerOp-or.NsPerOp) / float64(or.NsPerOp)
		verdict := "ok"
		switch {
		case delta > threshold:
			verdict = "REGRESSION"
			regressions++
		case or.OuterIterations > 0 && nr.OuterIterations > or.OuterIterations:
			// Outer iterations are deterministic — any growth is a real
			// convergence regression, judged as strictly as a time one.
			// Old baselines without the field (OuterIterations 0) are
			// exempt for back-compatibility.
			verdict = "ITER REGRESSION"
			regressions++
		case delta < -threshold:
			verdict = "faster"
		}
		rows = append(rows, []string{recordLabel(nr), fmt.Sprint(nr.Procs),
			fmtNs(or.NsPerOp), fmtNs(nr.NsPerOp),
			fmt.Sprintf("%+.1f%%", 100*delta),
			fmtIterPair(or.OuterIterations, nr.OuterIterations),
			fmtSpeedup(or.SpeedupVsSerial) + " -> " + fmtSpeedup(nr.SpeedupVsSerial),
			verdict})
	}
	missing := 0
	for _, or := range oldRep.Records {
		if k := (key{or.Name, or.Procs, or.Shards}); seen[k] {
			continue
		}
		verdict := "missing"
		if or.Procs > newRep.NumCPU {
			verdict = fmt.Sprintf("skip (host has %d CPUs)", newRep.NumCPU)
		} else {
			missing++
			fmt.Fprintf(os.Stderr, "seabench: missing record %s procs=%d shards=%d (present in %s, absent from %s)\n",
				or.Name, or.Procs, or.Shards, oldPath, newPath)
		}
		rows = append(rows, []string{recordLabel(or), fmt.Sprint(or.Procs),
			fmtNs(or.NsPerOp), "-", "-", fmtIterPair(or.OuterIterations, 0),
			fmtSpeedup(or.SpeedupVsSerial), verdict})
	}

	report.Render(os.Stdout, fmt.Sprintf("Perf comparison: %s -> %s (threshold %.0f%%)",
		oldPath, newPath, 100*threshold),
		[]string{"record", "procs", "old ns/op", "new ns/op", "delta", "iters", "speedup", "verdict"}, rows)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "seabench: %d record(s) regressed beyond %.0f%%\n",
			regressions, 100*threshold)
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "seabench: %d record(s) missing from %s\n", missing, newPath)
	}
	return regressions + missing
}

func loadReport(path string) (experiments.PerfReport, error) {
	var rep experiments.PerfReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Records) == 0 {
		return rep, fmt.Errorf("%s: no perf records", path)
	}
	return rep, nil
}

// recordLabel renders a record's name, tagging the shard count for the
// sharded serving records (so each (name, shards) pair reads as its own row)
// and the period count for the temporal "sequence/" records.
func recordLabel(r experiments.PerfRecord) string {
	if r.Shards > 0 {
		return fmt.Sprintf("%s[shards=%d]", r.Name, r.Shards)
	}
	if r.Periods > 0 {
		return fmt.Sprintf("%s[periods=%d]", r.Name, r.Periods)
	}
	return r.Name
}

// fmtIterPair renders the outer-iteration delta column; zero on either
// side (old baselines predating the field, or a new/missing record)
// renders as "-".
func fmtIterPair(old, new int) string {
	lhs, rhs := "-", "-"
	if old > 0 {
		lhs = fmt.Sprint(old)
	}
	if new > 0 {
		rhs = fmt.Sprint(new)
	}
	if lhs == "-" && rhs == "-" {
		return "-"
	}
	return lhs + " -> " + rhs
}

// fmtSpeedup renders a speedup-vs-serial value; zero (absent in old files)
// renders as "-".
func fmtSpeedup(s float64) string {
	if s == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", s)
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
