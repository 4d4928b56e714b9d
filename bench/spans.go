package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sea/pkg/sea"
)

// A span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused it (0 for the root).
// Times are nanoseconds since the recorder started.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory until the run ends. It is
// safe for concurrent use.
type recorder struct {
	base time.Time
	ids  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// now returns the current time on the recorder's clock.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// at converts a wall-clock instant to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

// id returns a fresh span or operation ID (never 0).
func (r *recorder) id() int64 { return r.ids.Add(1) }

func (r *recorder) add(spans ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// writeJSONL writes every span, one JSON object per line, to
// dir/<name>.spans.jsonl.
func (r *recorder) writeJSONL(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// iterObserver turns one solve's trace events into spans: each event becomes
// an iteration span with row, col and check children. The solver reports an
// event just after the iteration's check phase ends, so a span's end is the
// observation time minus the later phases and its start is its end minus its
// own phase duration. It also sums the event counters.
type iterObserver struct {
	rec        *recorder
	op, parent int64

	iterations int
	equil, ops int64
	firstStart int64 // start of the first iteration
}

func (o *iterObserver) ObserveIteration(e sea.TraceEvent) {
	end := o.rec.now()
	checkStart := end - int64(e.CheckPhase)
	colStart := checkStart - int64(e.ColPhase)
	rowStart := colStart - int64(e.RowPhase)
	it := o.rec.id()
	o.rec.add(
		span{Op: o.op, ID: it, Parent: o.parent, Name: "core.iteration", Start: rowStart, End: end},
		span{Op: o.op, ID: o.rec.id(), Parent: it, Name: "core.row", Start: rowStart, End: colStart},
		span{Op: o.op, ID: o.rec.id(), Parent: it, Name: "core.col", Start: colStart, End: checkStart},
		span{Op: o.op, ID: o.rec.id(), Parent: it, Name: "core.check", Start: checkStart, End: end},
	)
	if o.iterations == 0 {
		o.firstStart = rowStart
	}
	o.iterations++
	o.equil += e.Equilibrations
	o.ops += e.Ops
}

// precondSpan places the preconditioning stage, whose length the solution
// reports, at the start of the solve it belongs to, ending no later than the
// first iteration.
func (o *iterObserver) precondSpan(start int64, ns int64) span {
	end := start + ns
	if o.iterations > 0 && end > o.firstStart {
		end = o.firstStart
	}
	return span{Op: o.op, ID: o.rec.id(), Parent: o.parent, Name: "scale.precondition", Start: end - ns, End: end}
}

// selfTime returns s's duration minus the part of it covered by the union of
// its children's intervals.
func selfTime(s span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, reach int64
	reach = s.Start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			covered += v.hi - reach
			reach = v.hi
		}
	}
	return s.End - s.Start - covered
}

// opTimes is one operation's span durations and self times, summed by span
// name, in nanoseconds.
type opTimes struct {
	dur, self map[string]int64
}

// aggregate groups spans by operation and sums each name's durations and
// self times.
func aggregate(spans []span) map[int64]*opTimes {
	children := make(map[[2]int64][]span) // (op, parent) → children
	for _, s := range spans {
		k := [2]int64{s.Op, s.Parent}
		children[k] = append(children[k], s)
	}
	out := make(map[int64]*opTimes)
	for _, s := range spans {
		t := out[s.Op]
		if t == nil {
			t = &opTimes{dur: map[string]int64{}, self: map[string]int64{}}
			out[s.Op] = t
		}
		t.dur[s.Name] += s.End - s.Start
		t.self[s.Name] += selfTime(s, children[[2]int64{s.Op, s.ID}])
	}
	return out
}
