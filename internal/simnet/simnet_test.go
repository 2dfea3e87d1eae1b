package simnet

import (
	"math"
	"testing"

	"dynasym/internal/sim"
)

// call adapts a closure to sim.Handler for tests.
type call struct{ f func() }

func (c *call) HandleEvent(sim.EventKind, float64) { c.f() }

// schedAt runs fn at absolute virtual time t.
func schedAt(e *sim.Engine, t float64, f func()) { e.AtEvent(t, &call{f}, 0) }

func TestSendThenRecv(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	var deliveredAt float64
	key := MsgKey{From: 0, To: 1, Tag: 7}
	schedAt(e, 0, func() {
		n.Send(key, 1e6) // 1 MB: 1 µs latency + 1 ms transfer
	})
	schedAt(e, 0.5e-3, func() {
		n.Recv(key, func(at float64) { deliveredAt = at })
	})
	e.Run()
	want := 1e-6 + 1e-3
	if math.Abs(deliveredAt-want) > 1e-9 {
		t.Fatalf("delivered at %g, want %g", deliveredAt, want)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	e := sim.New()
	n := New(e, 2e-6, 1e9)
	var deliveredAt float64
	key := MsgKey{From: 3, To: 0, Tag: 1}
	schedAt(e, 0, func() {
		n.Recv(key, func(at float64) { deliveredAt = at })
	})
	schedAt(e, 1.0, func() {
		n.Send(key, 0)
	})
	e.Run()
	if math.Abs(deliveredAt-(1.0+2e-6)) > 1e-12 {
		t.Fatalf("delivered at %g", deliveredAt)
	}
}

func TestRecvAfterArrivalFiresImmediately(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	key := MsgKey{From: 0, To: 1, Tag: 2}
	fired := false
	schedAt(e, 0, func() { n.Send(key, 0) })
	schedAt(e, 1.0, func() {
		n.Recv(key, func(at float64) {
			fired = true
			if at > 1e-3 {
				t.Errorf("arrival time %g should reflect actual delivery", at)
			}
		})
		if !fired {
			t.Error("late Recv did not fire synchronously")
		}
	})
	e.Run()
}

func TestDistinctTagsDoNotMatch(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	got := 0
	schedAt(e, 0, func() {
		n.Send(MsgKey{From: 0, To: 1, Tag: 1}, 0)
		n.Recv(MsgKey{From: 0, To: 1, Tag: 2}, func(float64) { got++ })
	})
	e.Run()
	if got != 0 {
		t.Fatal("mismatched tag delivered")
	}
	if n.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", n.Pending())
	}
}

func TestDuplicateReceiverPanics(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	key := MsgKey{From: 0, To: 1, Tag: 5}
	schedAt(e, 0, func() {
		n.Recv(key, func(float64) {})
		defer func() {
			if recover() == nil {
				t.Error("duplicate receiver did not panic")
			}
		}()
		n.Recv(key, func(float64) {})
	})
	e.Run()
}

func TestCounters(t *testing.T) {
	e := sim.New()
	n := New(e, 1e-6, 1e9)
	key := MsgKey{From: 0, To: 1, Tag: 9}
	schedAt(e, 0, func() {
		n.Recv(key, func(float64) {})
		n.Send(key, 10)
	})
	e.Run()
	if n.Sent != 1 || n.Delivered != 1 || n.Pending() != 0 {
		t.Fatalf("sent=%d delivered=%d pending=%d", n.Sent, n.Delivered, n.Pending())
	}
}

// Two sends landing at the same virtual time are two deliveries: each
// in-flight message is its own handler, so the engine never merges them.
// Zero latency and size put both deliveries at the current time, where the
// engine coalesces duplicate (handler, kind) events.
func TestSameTimeSendsBothDeliver(t *testing.T) {
	e := sim.New()
	n := New(e, 0, 1e9)
	got := 0
	schedAt(e, 0, func() {
		for tag := int64(0); tag < 2; tag++ {
			key := MsgKey{From: 0, To: 1, Tag: tag}
			n.Recv(key, func(float64) { got++ })
			n.Send(key, 0)
		}
	})
	e.Run()
	if got != 2 || e.Coalesced != 0 {
		t.Fatalf("delivered %d of 2 same-time messages (coalesced %d)", got, e.Coalesced)
	}
}
