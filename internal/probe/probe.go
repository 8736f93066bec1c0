// Package probe is the machine's cycle-level instrumentation layer: a
// low-overhead event sink that the simulator components (core, persist
// path, WPQ, power-failure protocol) emit typed events into. Consumers —
// the Chrome-trace timeline exporter (timeline.go), the persist-order
// checker (persistorder.go) and the metrics layer (internal/metrics) —
// implement Sink and reconstruct whatever view they need from the event
// stream.
//
// The design constraint is that an unobserved simulation pays almost
// nothing: emitters hold a Sink field that is nil by default, every emit
// site is guarded by a single `if sink != nil` branch, and Event is a small
// value struct, so an Emit call performs no allocation. The benchmark in
// internal/machine/probe_bench_test.go pins the nil-sink overhead of a
// reference simulation below 2%.
package probe

// Kind discriminates event types. The Arg field's meaning is per kind; see
// the constants.
type Kind uint8

const (
	// RegionOpen: a core allocated a fresh region ID (Core, Region).
	RegionOpen Kind = iota
	// RegionClose: a core closed its region at a boundary (Core, Region;
	// Arg = dynamic stores the region issued).
	RegionClose
	// BoundaryBroadcast: a boundary entry dispatched from the front-end
	// buffer into every controller channel (Core, Region).
	BoundaryBroadcast
	// BoundaryAck: a controller received another controller's bdry-ACK
	// (MC = receiver, Region).
	BoundaryAck
	// WPQEnqueue: a data entry entered a controller's WPQ (MC, Region,
	// Addr; Arg = queue occupancy after the enqueue).
	WPQEnqueue
	// WPQFlush: a WPQ entry was written to PM (MC, Core, Region, Addr;
	// Arg = queue occupancy sampled at the flush, before removal).
	WPQFlush
	// WPQOverflowEnter: a controller activated the §IV-D deadlock-escape
	// path (MC; Region = the blocked flush ID).
	WPQOverflowEnter
	// WPQOverflowExit: the awaited boundary arrived and the escape path
	// ended (MC, Region).
	WPQOverflowExit
	// WPQUndo: the escape path undo-logged one pre-image before flushing
	// (MC, Addr; Arg = undo records now live).
	WPQUndo
	// FEBStallStart: a store-buffer drain was first rejected by a full
	// front-end buffer — back-pressure began (Core).
	FEBStallStart
	// FEBStallStop: the back-pressured store finally entered the front-end
	// buffer (Core; Arg = burst length in cycles).
	FEBStallStop
	// SnoopHit: an L1 victim-selection snoop found a conflicting front-end
	// buffer entry (Core, Addr = line address).
	SnoopHit
	// PowerFailCut: power was cut; the §IV-F drain protocol starts.
	PowerFailCut
	// PowerFailDrained: the drain protocol finished (Arg = WPQ entries of
	// unpersisted regions discarded).
	PowerFailDrained
	// RecoveryBoot: a sink was attached to a machine booted from a crash
	// image (Arg = the recovered region-counter seed).
	RecoveryBoot
	// FabricRetry: a controller retransmitted a boundary replay for a
	// region missing bdry-ACKs (MC, Region; Arg = retry round).
	FabricRetry
	// FabricDupSuppressed: a controller absorbed a duplicate ACK
	// idempotently (MC, Region; Arg = the duplicating peer).
	FabricDupSuppressed
	// MCDegraded: a controller was declared degraded — stuck past its
	// deadline or silent through a peer's retry budget — and switched to
	// undo-logged eager persistence (MC; Arg = 0 stuck, 1 peer timeout).
	MCDegraded

	numKinds = iota
)

// NumKinds is the number of event kinds (sizes Counter tables).
const NumKinds = int(numKinds)

var kindNames = [NumKinds]string{
	"region-open", "region-close", "boundary-broadcast", "boundary-ack",
	"wpq-enqueue", "wpq-flush", "wpq-overflow-enter", "wpq-overflow-exit",
	"wpq-undo", "feb-stall-start", "feb-stall-stop", "snoop-hit",
	"power-fail-cut", "power-fail-drained", "recovery-boot",
	"fabric-retry", "fabric-dup-suppressed", "mc-degraded",
}

// String returns the kind's kebab-case name.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// milestones marks the rare protocol transitions worth a line on a
// client-facing stream: deadlock-escape entry/exit, power failures, recovery
// boots and fabric degradation — never the per-store firehose. The HTTP
// streaming and session layers share this selection so an interrupted
// session's replayed stream carries exactly the events a live one did.
var milestones = [NumKinds]bool{
	WPQOverflowEnter:    true,
	WPQOverflowExit:     true,
	PowerFailCut:        true,
	PowerFailDrained:    true,
	RecoveryBoot:        true,
	FabricRetry:         true,
	FabricDupSuppressed: true,
	MCDegraded:          true,
}

// MilestoneKind reports whether k is a stream-worthy protocol milestone.
func MilestoneKind(k Kind) bool {
	return int(k) < NumKinds && milestones[k]
}

// Event is one instrumentation event. It is passed by value; fields that do
// not apply to a kind are -1 (Core, MC) or 0.
type Event struct {
	Kind  Kind
	Cycle uint64
	// Core is the issuing core, or -1.
	Core int
	// MC is the memory controller, or -1.
	MC     int
	Region uint64
	Addr   uint64
	// Arg is kind-specific; see the Kind constants.
	Arg uint64
}

// Sink consumes events. Implementations are driven from a single simulation
// goroutine and need not be safe for concurrent use; Emit must not retain
// references into the event (it is a value, so it cannot).
type Sink interface {
	Emit(e Event)
}

// multi fans one event out to several sinks.
type multi []Sink

func (m multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi combines sinks into one, dropping nils. It returns nil when nothing
// remains (so the nil-sink fast path stays intact) and the sink itself when
// only one remains.
func Multi(sinks ...Sink) Sink {
	out := make(multi, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// SinkFunc adapts a plain function to Sink, for consumers — like the crash
// fuzzer's interesting-cycle collector — that need no state beyond their
// closure.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Counter tallies events per kind — the cheapest possible consumer, used by
// tests and the overhead benchmark.
type Counter struct {
	ByKind [NumKinds]uint64
	Total  uint64
}

// Emit implements Sink.
func (c *Counter) Emit(e Event) {
	if int(e.Kind) < NumKinds {
		c.ByKind[e.Kind]++
	}
	c.Total++
}
