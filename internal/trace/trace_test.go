package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// costly is an observer that asks for costs.
type costly struct{ Collector }

func (*costly) WantsCosts() bool { return true }

func TestMultiSkipsNilsAndUnwrapsSingle(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live observers is not nil")
	}
	c := &Collector{}
	if got := Multi(nil, c, nil); got != Observer(c) {
		t.Errorf("Multi of one live observer = %T, want it unwrapped", got)
	}
	var order []string
	a := Func(func(Event) { order = append(order, "a") })
	b := Func(func(Event) { order = append(order, "b") })
	Multi(a, nil, b).ObserveIteration(Event{Iteration: 1})
	if strings.Join(order, "") != "ab" {
		t.Errorf("fan-out order %v, want [a b]", order)
	}
}

// TestSynchronizedSerializes shares one unsynchronized Collector between
// concurrent reporters through Synchronized; run it under -race.
func TestSynchronizedSerializes(t *testing.T) {
	if Synchronized(nil) != nil {
		t.Error("Synchronized(nil) is not nil")
	}
	c := &Collector{}
	obs := Synchronized(c)
	const workers, events = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= events; i++ {
				obs.ObserveIteration(Event{Iteration: i, Ops: 1})
			}
		}()
	}
	wg.Wait()
	if len(c.Events) != workers*events {
		t.Fatalf("collected %d events, want %d", len(c.Events), workers*events)
	}
}

func TestNewWriterHonoursEvery(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 3)
	for i := 1; i <= 10; i++ {
		w.ObserveIteration(Event{Solver: "sea", Iteration: i, Checked: i%2 == 0, Residual: 0.5, Equilibrations: 4, Interior: 3, Ops: 9})
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("every=3 over 10 iterations wrote %d lines, want 3:\n%s", len(lines), buf.String())
	}
	for k, want := range []string{"iter=3 residual=-", "iter=6 residual=0.5", "iter=9 residual=-"} {
		if !strings.HasPrefix(lines[k], "sea: "+want) || !strings.HasSuffix(lines[k], "equil=4 interior=3 ops=9") {
			t.Errorf("line %d = %q, want %q ... equil=4 interior=3 ops=9", k, lines[k], want)
		}
	}

	buf.Reset()
	w = NewWriter(&buf, 0) // every < 1 means every iteration
	for i := 1; i <= 4; i++ {
		w.ObserveIteration(Event{Solver: "rc", Iteration: i, Checked: true, Residual: math.NaN()})
	}
	if n := strings.Count(buf.String(), "\n"); n != 4 {
		t.Errorf("every=0 wrote %d lines over 4 iterations, want 4", n)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Errorf("a NaN residual printed as a number:\n%s", buf.String())
	}
}

func TestWantsCostsPassesThroughWrappers(t *testing.T) {
	plain, wants := &Collector{}, &costly{}
	for _, tc := range []struct {
		obs  Observer
		want bool
	}{
		{nil, false},
		{plain, false},
		{wants, true},
		{Synchronized(plain), false},
		{Synchronized(wants), true},
		{Multi(plain, Func(func(Event) {})), false},
		{Multi(plain, Synchronized(wants)), true},
	} {
		if got := WantsCosts(tc.obs); got != tc.want {
			t.Errorf("WantsCosts(%T) = %v, want %v", tc.obs, got, tc.want)
		}
	}
}

func TestSweepEventShape(t *testing.T) {
	Sweep(nil, "isp", 1, 0.5, 10) // a nil observer is a no-op
	c := &Collector{}
	Sweep(c, "isp", 7, 0.25, 42)
	want := Event{Solver: "isp", Iteration: 7, Checked: true, Residual: 0.25, SerialOps: 42}
	if len(c.Events) != 1 || !reflect.DeepEqual(c.Events[0], want) {
		t.Fatalf("Sweep reported %+v, want %+v", c.Events, want)
	}
}
