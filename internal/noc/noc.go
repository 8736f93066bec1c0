// Package noc models the on-chip interconnect LightWSP uses for its
// region-ID boundary broadcasts and the bdry-ACK / flush-ACK exchanges
// between memory controllers (§IV-B). Delivery is point-to-point FIFO with
// a fixed latency per channel; MC↔MC traffic is battery-backed, so on power
// failure in-flight ACKs still reach their targets (§IV-F step 1), while
// unsent core-side traffic is lost with the cores.
//
// An optional faults.Injector (SetInjector) turns the perfect fabric into a
// lossy one: individual messages can be dropped, duplicated, delayed, or —
// only when reorder faults are enabled — allowed to overtake messages that
// share their delivery cycle. With no injector attached the fabric is
// exactly the fixed-latency FIFO above, decision for decision.
package noc

import (
	"sort"

	"lightwsp/internal/faults"
)

// MsgKind distinguishes the control messages of the LRPO protocol.
type MsgKind uint8

const (
	// MsgBoundary announces that region ID finished execution; sent by a
	// core's persist path to every MC.
	MsgBoundary MsgKind = iota
	// MsgBdryAck acknowledges a boundary between MCs: "I too received
	// boundary r".
	MsgBdryAck
	// MsgFlushAck announces between MCs that the sender finished
	// flushing region r's WPQ entries to PM.
	MsgFlushAck
	// MsgBdryReplay retransmits a boundary announcement MC→MC when the
	// sender's ACK timer expires: "I have boundary r — do you?". Unlike
	// MsgBoundary it originates at a controller, so it rides the
	// battery-backed MC↔MC channel and survives DropCoreTraffic.
	MsgBdryReplay
)

// NumKinds is the number of message kinds, for counter arrays.
const NumKinds = 4

func (k MsgKind) String() string {
	switch k {
	case MsgBoundary:
		return "bdry"
	case MsgBdryAck:
		return "bdry-ack"
	case MsgFlushAck:
		return "flush-ack"
	case MsgBdryReplay:
		return "bdry-replay"
	}
	return "?"
}

// Message is one control message.
type Message struct {
	Kind   MsgKind
	Region uint64
	// From identifies the sender: a core index for MsgBoundary, an MC
	// index for ACKs and replays.
	From int
	// To is the destination MC index.
	To int
}

type inflight struct {
	msg     Message
	arrival uint64
	// eager marks a message hit by a reorder fault: it overtakes
	// non-eager messages that share its delivery cycle.
	eager bool
}

// Network delivers messages with a fixed latency. It is deliberately simple:
// the protocol's correctness does not depend on NoC timing, only on per-
// channel FIFO order, which a single latency trivially provides.
type Network struct {
	latency uint64
	queue   []inflight
	// next is the earliest arrival in queue (NoEvent when it is empty):
	// Send lowers it, and whatever removes messages recomputes it.
	next uint64
	inj  *faults.Injector
	// due and out are Deliver's batches, reused on every call.
	due []inflight
	out []Message

	// Sent counts messages by kind, for the experiment harness. A message
	// is counted when Send is called, even if the injector then drops it;
	// injected duplicates are not counted (the injector tracks those).
	Sent [NumKinds]uint64
}

// New returns a network with the given delivery latency in cycles.
func New(latency uint64) *Network {
	return &Network{latency: latency, next: NoEvent}
}

// SetInjector attaches a fault injector consulted on every Send. A nil
// injector (the default) restores the perfect fabric.
func (n *Network) SetInjector(inj *faults.Injector) { n.inj = inj }

// Clone returns an independent copy of the network: its in-flight messages,
// their earliest arrival and its counters. The copy has no injector —
// attach the copy's own with SetInjector, since consulting n's would
// advance n's decision stream.
func (n *Network) Clone() *Network {
	c := *n
	c.queue = append([]inflight(nil), n.queue...)
	c.inj = nil
	c.due, c.out = nil, nil // a copy owns its batches
	return &c
}

// Send enqueues a message at time now; it arrives at now+latency, unless an
// attached injector drops, delays, or duplicates it. An injected duplicate
// trails the original by one cycle, modeling a spurious retransmission.
func (n *Network) Send(now uint64, m Message) {
	n.Sent[m.Kind]++
	if n.inj == nil {
		n.push(inflight{msg: m, arrival: now + n.latency})
		return
	}
	d := n.inj.Message(now, int(m.Kind), m.Region, m.From, m.To)
	if d.Drop {
		return
	}
	n.push(inflight{msg: m, arrival: now + n.latency + d.Delay, eager: d.Reorder})
	if d.Dup {
		n.push(inflight{msg: m, arrival: now + n.latency + d.Delay + 1})
	}
}

// push queues f behind every message sent before it.
func (n *Network) push(f inflight) {
	n.queue = append(n.queue, f)
	n.next = min(n.next, f.arrival)
}

// Deliver pops every message due at or before now. Messages sharing a
// delivery cycle come out in send order — injected delays move a message to
// a later cycle but never invert it against messages it ties with — except
// that reorder-faulted messages overtake the non-faulted ones in their batch.
// The result is valid only until the next call: the network reuses it.
func (n *Network) Deliver(now uint64) []Message {
	if n.next > now {
		return nil // nothing is due: the queue stays as it is
	}
	due := n.due[:0]
	rest := n.queue[:0]
	next := uint64(NoEvent)
	anyEager := false
	for _, f := range n.queue {
		if f.arrival <= now {
			due = append(due, f)
			anyEager = anyEager || f.eager
		} else {
			rest = append(rest, f)
			next = min(next, f.arrival)
		}
	}
	n.queue, n.next = rest, next
	if anyEager {
		// Stable: eager messages jump the batch but keep send order among
		// themselves, as do the messages they overtake.
		sort.SliceStable(due, func(i, j int) bool { return due[i].eager && !due[j].eager })
	}
	out := n.out[:0]
	for _, f := range due {
		out = append(out, f.msg)
	}
	n.due, n.out = due, out
	return out
}

// Pending returns the number of undelivered messages, counting injected
// duplicates still in flight.
func (n *Network) Pending() int { return len(n.queue) }

// NoEvent is NextArrival's result for an empty network.
const NoEvent = ^uint64(0)

// NextArrival returns the earliest pending delivery cycle, or NoEvent when
// nothing is in flight. After Deliver(now) every queued message has
// arrival > now, so the event/epoch scheduler can jump straight to the
// returned cycle: a Deliver call on any cycle in between would pop nothing.
// The network keeps the value, so the call costs O(1).
func (n *Network) NextArrival() uint64 { return n.next }

// DrainAll delivers every in-flight message immediately, regardless of
// arrival cycle, and returns them in send order — the order Send was called,
// which for equal-arrival (and even fault-delayed) messages is the same
// tie-break Deliver uses. Used by the power-failure protocol: MC↔MC ACKs are
// battery-backed and guaranteed to arrive (§IV-F step 1), so fault delays
// are irrelevant here; drops and duplicates have already been applied at
// Send time.
func (n *Network) DrainAll() []Message {
	out := make([]Message, 0, len(n.queue))
	for _, f := range n.queue {
		out = append(out, f.msg)
	}
	n.queue, n.next = n.queue[:0], NoEvent
	return out
}

// DropCoreTraffic discards in-flight boundary broadcasts (core-sent, still
// in the volatile core-side path at power failure); MC↔MC ACKs and boundary
// replays survive on battery.
func (n *Network) DropCoreTraffic() {
	rest := n.queue[:0]
	next := uint64(NoEvent)
	for _, f := range n.queue {
		if f.msg.Kind != MsgBoundary {
			rest = append(rest, f)
			next = min(next, f.arrival)
		}
	}
	n.queue, n.next = rest, next
}
