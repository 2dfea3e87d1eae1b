package sim

import "testing"

// runTrace schedules a fixed event pattern on the engine and returns the
// observed dispatch order.
func runTrace(e *Engine) []int {
	var got []int
	schedAfter(e, 2e-6, func() { got = append(got, 1) })
	schedAfter(e, 1e-6, func() {
		got = append(got, 2)
		schedAfter(e, 0, func() { got = append(got, 3) })
	})
	schedAfter(e, 5, func() { got = append(got, 4) })
	e.Run()
	return got
}

func TestResetMatchesFreshEngine(t *testing.T) {
	want := runTrace(New())

	e := New()
	runTrace(e)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Processed != 0 {
		t.Fatalf("after Reset: now=%v pending=%d processed=%d, want all zero",
			e.Now(), e.Pending(), e.Processed)
	}
	got := runTrace(e)
	if len(got) != len(want) {
		t.Fatalf("reset engine dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset engine order %v, want %v", got, want)
		}
	}
}

func TestResetDropsPendingEvents(t *testing.T) {
	e := New()
	fired := false
	schedAfter(e, 1, func() { fired = true })
	schedAfter(e, 1e-9, func() { e.Stop() })
	e.RunUntil(1e-6)
	e.Reset()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Reset, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("Reset kept an event scheduled before the reset")
	}
}
