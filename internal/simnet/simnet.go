// Package simnet models the cluster interconnect for simulated distributed
// runs: point-to-point messages with per-link latency and bandwidth, plus a
// rendezvous layer that matches sends to the tasks waiting for them.
//
// It substitutes for the paper's Mellanox FDR InfiniBand fabric between the
// Haswell nodes: the distributed Heat workload's boundary-exchange tasks
// complete when both their local CPU work and the matching remote boundary
// have arrived, which is exactly how a blocking MPI Sendrecv behaves.
package simnet

import (
	"fmt"

	"dynasym/internal/sim"
)

// Network delivers messages between nodes over a shared event engine.
type Network struct {
	engine *sim.Engine
	// Latency is the per-message one-way latency in seconds (FDR IB RDMA
	// latency is ~1 µs; MPI adds protocol overhead).
	Latency float64
	// Bandwidth is the per-link bandwidth in bytes/s (FDR 56 Gb/s ≈
	// 6.8 GB/s; defaults use ~5 GB/s effective).
	Bandwidth float64

	inbox map[MsgKey]*slot
	// Sent and Delivered count messages for diagnostics.
	Sent, Delivered int64
}

// MsgKey identifies one logical message: a (from, to, tag) triple. Tags
// encode application structure (e.g. iteration and direction of a boundary
// exchange).
type MsgKey struct {
	From, To int
	Tag      int64
}

type slot struct {
	arrived  bool
	at       float64
	receiver func(at float64)
}

// New builds a network on the engine with the given one-way latency
// (seconds) and bandwidth (bytes/s).
func New(engine *sim.Engine, latency, bandwidth float64) *Network {
	if latency < 0 || bandwidth <= 0 {
		panic("simnet: latency must be >= 0 and bandwidth > 0")
	}
	return &Network{
		engine:    engine,
		Latency:   latency,
		Bandwidth: bandwidth,
		inbox:     make(map[MsgKey]*slot),
	}
}

// Send transmits `bytes` from key.From to key.To; the message is delivered
// (and any waiting receiver completed) after latency + bytes/bandwidth.
// Each key must be sent at most once per Recv.
func (n *Network) Send(key MsgKey, bytes float64) {
	n.Sent++
	at := n.engine.Now() + n.Latency + bytes/n.Bandwidth
	n.engine.AtEvent(at, &delivery{n: n, key: key}, 0)
}

// delivery is one in-flight message, scheduled as a typed event for its
// arrival time. Every message is its own pointer, so same-time sends never
// coalesce in the engine.
type delivery struct {
	n   *Network
	key MsgKey
}

// HandleEvent lands the message: it completes a waiting receiver or parks
// in the inbox until Recv asks for it.
func (d *delivery) HandleEvent(_ sim.EventKind, at float64) {
	n := d.n
	s := n.inbox[d.key]
	if s == nil {
		n.inbox[d.key] = &slot{arrived: true, at: at}
		return
	}
	if s.arrived {
		panic(fmt.Sprintf("simnet: duplicate send for %+v", d.key))
	}
	s.arrived = true
	s.at = at
	n.Delivered++
	recv := s.receiver
	s.receiver = nil
	delete(n.inbox, d.key)
	recv(at)
}

// Recv registers a receiver for the message key. If the message already
// arrived, done runs immediately (same virtual time); otherwise it runs at
// delivery time. Each key accepts exactly one receiver.
func (n *Network) Recv(key MsgKey, done func(at float64)) {
	s := n.inbox[key]
	if s == nil {
		n.inbox[key] = &slot{receiver: done}
		return
	}
	if s.receiver != nil {
		panic(fmt.Sprintf("simnet: duplicate receiver for %+v", key))
	}
	n.Delivered++
	delete(n.inbox, key)
	done(s.at)
}

// Pending returns the number of unmatched sends or receives, useful for
// detecting protocol mismatches in tests.
func (n *Network) Pending() int { return len(n.inbox) }
