package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Equilibrations.Add(1)
				c.Ops.Add(3)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Equilibrations != 8000 {
		t.Errorf("Equilibrations = %d, want 8000", s.Equilibrations)
	}
	if s.Ops != 24000 {
		t.Errorf("Ops = %d, want 24000", s.Ops)
	}
}

func TestReset(t *testing.T) {
	var c Counters
	c.Iterations.Add(5)
	c.OuterIterations.Add(2)
	c.SerialOps.Add(9)
	c.ConvChecks.Add(1)
	c.Reset()
	s := c.Snapshot()
	if s != (Snapshot{}) {
		t.Errorf("Reset left %+v", s)
	}
}

func TestSnapshotString(t *testing.T) {
	var c Counters
	c.Iterations.Add(3)
	if got := c.Snapshot().String(); !strings.Contains(got, "iter=3") {
		t.Errorf("String() = %q", got)
	}
}
