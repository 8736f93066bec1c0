package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lightwsp/internal/probe"
)

// DefaultFlightCap is the flight recorder's default ring capacity: enough of
// the probe-event tail to see what the machine was doing when a run died.
// Events are 56 bytes, so a full ring is 224 KiB; it is allocated on the
// first event, so a request that simulates nothing (a memo hit, a joined
// waiter) never pays for it.
const DefaultFlightCap = 4096

// FlightRecorder keeps the last N probe events of one in-flight run in a
// bounded ring, so a run that ends badly — deadline, error, panic, or a
// SIGTERM that interrupts the drain — can dump the cycle-level evidence of
// its final moments to disk for a post-mortem.
//
// Unlike most probe sinks, a FlightRecorder is safe for concurrent use: it
// is written from the simulation goroutine but dumped from the request
// handler (or the drain path) which may race a cancellation that has not yet
// reached the cycle loop. The mutex costs ~20 ns per event, which only runs
// attached to a request pay; the nil-sink fast path is untouched.
type FlightRecorder struct {
	mu      sync.Mutex
	size    int
	ring    []probe.Event // nil until the first Emit
	next    int           // ring write position
	total   uint64        // events ever observed
	traceID string
	suite   string
	app     string
	scheme  string
	session string
}

// NewFlightRecorder returns a recorder keeping the last cap events
// (cap <= 0 means DefaultFlightCap) for the run identified by traceID.
func NewFlightRecorder(traceID string, cap int) *FlightRecorder {
	if cap <= 0 {
		cap = DefaultFlightCap
	}
	return &FlightRecorder{size: cap, traceID: traceID}
}

// SetRun records what the recorder is watching (shows up in the dump).
func (f *FlightRecorder) SetRun(suite, app, scheme string) {
	f.mu.Lock()
	f.suite, f.app, f.scheme = suite, app, scheme
	f.mu.Unlock()
}

// SetSession tags the recorder with the durable session it is watching, so a
// dump from a killed or drained session operation can be matched back to the
// session store entry it belongs to.
func (f *FlightRecorder) SetSession(id string) {
	f.mu.Lock()
	f.session = id
	f.mu.Unlock()
}

// TraceID returns the run identity the recorder was created with.
func (f *FlightRecorder) TraceID() string { return f.traceID }

// Emit implements probe.Sink.
func (f *FlightRecorder) Emit(e probe.Event) {
	f.mu.Lock()
	if f.ring == nil {
		f.ring = make([]probe.Event, 0, f.size)
	}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, e)
	} else {
		f.ring[f.next] = e
	}
	f.next++
	if f.next == cap(f.ring) {
		f.next = 0
	}
	f.total++
	f.mu.Unlock()
}

// Events returns the buffered tail in emission order.
func (f *FlightRecorder) Events() []probe.Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eventsLocked()
}

func (f *FlightRecorder) eventsLocked() []probe.Event {
	out := make([]probe.Event, 0, len(f.ring))
	if len(f.ring) == cap(f.ring) {
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	} else {
		out = append(out, f.ring...)
	}
	return out
}

// Total returns how many events the recorder has seen (>= len(Events())).
func (f *FlightRecorder) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// flightEvent is one dumped probe event, with the kind spelled out so the
// dump reads without the probe package's constant table at hand.
type flightEvent struct {
	Kind  string `json:"kind"`
	Cycle uint64 `json:"cycle"`
	// Core and MC are -1 when the kind has no issuing core/controller.
	Core   int    `json:"core"`
	MC     int    `json:"mc"`
	Region uint64 `json:"region,omitempty"`
	Addr   uint64 `json:"addr,omitempty"`
	Arg    uint64 `json:"arg,omitempty"`
}

// FlightDump is the on-disk post-mortem record: identity, the reason the
// recorder was dumped, and the final probe events of the victim run.
type FlightDump struct {
	TraceID string `json:"trace_id"`
	Suite   string `json:"suite,omitempty"`
	App     string `json:"app,omitempty"`
	Scheme  string `json:"scheme,omitempty"`
	// Session is the durable session the dumped operation belonged to, when
	// it was a session advance/resume/snapshot.
	Session string `json:"session,omitempty"`
	// Reason is why the dump exists: "deadline", "error", "panic" or
	// "drain-interrupted".
	Reason string `json:"reason"`
	// Error is the run's terminal error text, when there was one.
	Error string `json:"error,omitempty"`
	// DumpedAt is the wall-clock dump time, RFC 3339.
	DumpedAt string `json:"dumped_at"`
	// TotalEvents counts every probe event the run emitted; Events holds the
	// last len(Events) of them.
	TotalEvents uint64        `json:"total_events"`
	Events      []flightEvent `json:"events"`
}

// Dump atomically writes the recorder's current tail into dir as
// <traceID>.flight.json (write to a temp file, then rename — a crash mid-dump
// never leaves a torn file) and returns the path. The recorder keeps
// recording; a later dump overwrites the earlier one.
func (f *FlightRecorder) Dump(dir, reason string, runErr error) (string, error) {
	f.mu.Lock()
	d := FlightDump{
		TraceID:     f.traceID,
		Suite:       f.suite,
		App:         f.app,
		Scheme:      f.scheme,
		Session:     f.session,
		Reason:      reason,
		DumpedAt:    time.Now().UTC().Format(time.RFC3339Nano),
		TotalEvents: f.total,
	}
	evs := f.eventsLocked()
	f.mu.Unlock()

	if runErr != nil {
		d.Error = runErr.Error()
	}
	d.Events = make([]flightEvent, len(evs))
	for i, e := range evs {
		d.Events[i] = flightEvent{
			Kind: e.Kind.String(), Cycle: e.Cycle, Core: e.Core, MC: e.MC,
			Region: e.Region, Addr: e.Addr, Arg: e.Arg,
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(d, "", "\t")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.traceID+".flight.json")
	tmp, err := os.CreateTemp(dir, "."+f.traceID+".*.tmp")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("obs: publishing flight dump: %w", err)
	}
	return path, nil
}
