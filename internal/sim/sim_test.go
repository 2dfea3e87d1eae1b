package sim

import (
	"math"
	"testing"
)

// call adapts a closure to Handler for tests. Each call is a fresh
// pointer, so same-time events never coalesce.
type call struct{ f func() }

func (c *call) HandleEvent(EventKind, float64) { c.f() }

// schedAt runs fn at absolute time t; schedAfter runs it d from now.
func schedAt(e *Engine, t float64, f func())    { e.AtEvent(t, &call{f}, 0) }
func schedAfter(e *Engine, d float64, f func()) { e.AfterEvent(d, &call{f}, 0) }

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	schedAt(e, 2, func() { order = append(order, 2) })
	schedAt(e, 1, func() { order = append(order, 1) })
	schedAt(e, 3, func() { order = append(order, 3) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time %g, want 3", end)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var order []string
	schedAt(e, 1, func() { order = append(order, "first") })
	schedAt(e, 1, func() { order = append(order, "second") })
	e.Run()
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("tie broken wrong: %v", order)
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at float64
	schedAt(e, 5, func() {
		schedAfter(e, 2, func() { at = e.Now() })
	})
	e.Run()
	if at != 7 {
		t.Fatalf("After landed at %g, want 7", at)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 10 {
			schedAfter(e, 1, recur)
		}
	}
	schedAt(e, 0, recur)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 9 {
		t.Fatalf("time = %g, want 9", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	ran := 0
	for i := 1; i <= 10; i++ {
		i := i
		schedAt(e, float64(i), func() { ran = i })
	}
	e.RunUntil(5.5)
	if ran != 5 {
		t.Fatalf("ran through event %d, want 5", ran)
	}
	if e.Now() != 5.5 {
		t.Fatalf("clock = %g, want 5.5", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	e.Run()
	if ran != 10 {
		t.Fatal("continuation after RunUntil failed")
	}
}

func TestStop(t *testing.T) {
	e := New()
	ran := 0
	schedAt(e, 1, func() { ran++; e.Stop() })
	schedAt(e, 2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("Stop did not halt processing: ran=%d", ran)
	}
	e.Run()
	if ran != 2 {
		t.Fatal("Run after Stop did not resume")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	schedAt(e, 5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		schedAt(e, 1, func() {})
	})
	e.Run()
}

func TestNaNPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time did not panic")
		}
	}()
	schedAt(e, math.NaN(), func() {})
}

func TestProcessedCounter(t *testing.T) {
	e := New()
	for i := 0; i < 100; i++ {
		schedAt(e, float64(i), func() {})
	}
	e.Run()
	if e.Processed != 100 {
		t.Fatalf("Processed = %d, want 100", e.Processed)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	e := New()
	i := 0
	next := &call{}
	next.f = func() {
		i++
		if i < b.N {
			e.AfterEvent(1e-6, next, 0)
		}
	}
	e.AtEvent(0, next, 0)
	e.Run()
}
