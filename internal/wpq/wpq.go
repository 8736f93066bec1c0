// Package wpq models the battery-backed write pending queue that LightWSP
// repurposes as a redo buffer (§III-A), together with the per-controller
// protocol state of lazy region-level persist ordering (§IV-B): the
// persistent flush ID register, boundary bookkeeping, the bdry-ACK /
// flush-ACK exchange, the load-miss CAM search (§IV-H), and the
// deadlock-escape overflow path with undo logging (§IV-D).
//
// Two modes are provided. Gated is LightWSP's: entries are quarantined until
// their region's boundary has reached every controller, then flushed to PM
// strictly in region order. FIFO is the pass-through used by the baseline
// persistence schemes (Capri, PPA, cWSP), which enforce ordering elsewhere
// (core stalls or speculation): entries flush in arrival order at PM write
// bandwidth.
package wpq

import (
	"fmt"
	"maps"
	"sort"

	"lightwsp/internal/mem"
	"lightwsp/internal/noc"
	"lightwsp/internal/probe"
)

// Mode selects the queue's flush discipline.
type Mode int

const (
	// Gated quarantines entries per region and flushes in region order
	// (LightWSP's LRPO).
	Gated Mode = iota
	// FIFO flushes entries in arrival order.
	FIFO
)

// Entry is one 8-byte quarantined store.
type Entry struct {
	Addr, Val uint64
	Region    uint64
	Boundary  bool
	Core      int
	// Born is the cycle the entry entered the persist path.
	Born uint64
}

// Config parameterizes one controller's queue.
type Config struct {
	// ID is this controller's index; NumMCs the total count.
	ID, NumMCs int
	// Entries is the queue capacity (Table I: 64 × 8 B = 512 B).
	Entries int
	// Mode is the flush discipline.
	Mode Mode
	// PMWriteInterval is the cycles between successive 8-byte PM writes
	// (the PM write-bandwidth model).
	PMWriteInterval uint64
	// PMWriteExtra is added to every PM write; cWSP's in-line undo
	// logging cost (§II-C2) uses it.
	PMWriteExtra uint64
	// FirstRegion is the region ID the flush ID register starts at.
	FirstRegion uint64

	// RetryTimeout is the cycles the controller waits for missing
	// bdry-ACKs on the current flush region before retransmitting a
	// boundary replay; successive retransmissions back off exponentially.
	// Only consulted once EnableRetry has armed the reliable-delivery
	// machinery (a fault injector is attached).
	RetryTimeout uint64
	// RetryBudget caps the exponential backoff: after this many
	// retransmission rounds the controller reports the unresponsive peers
	// via Sinks.OnPeerTimeout (degradation) and keeps replaying at the
	// maximum backoff so delivery still eventually succeeds.
	RetryBudget int
	// BrokenDupAcks (test-only) reverts ACK bookkeeping to counting
	// instead of per-peer sets, so duplicated or re-solicited ACKs
	// double-count and regions can flush before every peer confirmed the
	// boundary — the seeded bug the crash-fuzzing campaign must catch.
	BrokenDupAcks bool
}

// Sinks are the callbacks the queue drives.
type Sinks struct {
	// PMWrite persists one word.
	PMWrite func(addr, val uint64)
	// PMRead reads one persisted word (for undo logging).
	PMRead func(addr uint64) uint64
	// Send transmits a protocol message to another controller.
	Send func(m noc.Message)
	// OnFlush is invoked when an entry reaches PM (per-core outstanding
	// accounting); it may be nil.
	OnFlush func(e Entry)
	// OnPeerTimeout reports a peer that stayed silent through the whole
	// retry budget, so the machine can declare it degraded; it may be nil
	// and may be invoked repeatedly for the same peer.
	OnPeerTimeout func(peer int)
}

// Queue is one memory controller's WPQ plus LRPO protocol state.
type Queue struct {
	cfg   Config
	sinks Sinks

	entries []Entry

	// flushID is the latest unpersisted region (a 2-byte persistent
	// register in real hardware, §IV-B). The paper's hardware encodes
	// region IDs in 16 unused address bits and would compare them with
	// wraparound-aware modular arithmetic; the simulation uses 64-bit IDs
	// directly, which never wrap over any feasible run length, so plain
	// comparisons are exact here.
	flushID uint64

	bdryRcvd map[uint64]bool
	// bdryAcks and flushAcks track, per region, which peers acknowledged —
	// a bitmask indexed by MC, so duplicated or re-solicited ACKs are
	// idempotent. Under the test-only BrokenDupAcks config the same maps
	// degenerate to plain counters (the pre-reliable-delivery bookkeeping).
	bdryAcks  map[uint64]uint64
	flushAcks map[uint64]uint64
	// flushReady is canFlush(flushID), stored: every reader asks about
	// the flush region, and the answer changes only when its boundary or
	// one of its bdry-ACKs arrives or the flush ID advances (confirm).
	flushReady bool

	busyUntil uint64

	// Overflow escape state (§IV-D).
	overflow bool
	// undoRecs mirrors the PM-resident undo log, tagged with the region
	// each record belongs to so commits can retire a region's records
	// while later regions' eager writes stay covered.
	undoRecs []undoRec

	// Reliable-delivery state (armed by EnableRetry): a retransmission
	// timer for the flush region's missing bdry-ACKs.
	retryEnabled bool
	retryArmed   bool
	retryRegion  uint64
	retryCount   int
	retryAt      uint64

	// degraded switches the queue to undo-logged eager persistence: see
	// SetDegraded.
	degraded bool

	// probe, when set, receives every event of the queue: enqueues,
	// flushes, bdry-ACKs received, deadlock-escape transitions, undo
	// logging, retries and suppressed duplicates.
	probe probe.Sink

	// Statistics.
	Flushed       uint64 // entries written to PM
	Committed     uint64 // regions committed at this controller
	CAMHits       uint64 // load-miss WPQ hits (§IV-H)
	CAMSearches   uint64
	Deadlocks     uint64 // overflow-escape activations
	UndoWrites    uint64 // undo-logged PM writes
	FullRejects   uint64 // entries declined because the queue was full
	Retries       uint64 // boundary replays retransmitted
	DupSuppressed uint64 // duplicate ACKs absorbed idempotently
	MaxOccupancy  int
}

// undoRec is the in-memory mirror of one PM undo-log record.
type undoRec struct {
	addr, old uint64
	region    uint64
}

// New builds a queue.
func New(cfg Config, sinks Sinks) *Queue {
	if cfg.FirstRegion == 0 {
		cfg.FirstRegion = 1
	}
	return &Queue{
		cfg:       cfg,
		sinks:     sinks,
		flushID:   cfg.FirstRegion,
		bdryRcvd:  map[uint64]bool{},
		bdryAcks:  map[uint64]uint64{},
		flushAcks: map[uint64]uint64{},
	}
}

// Clone returns an independent copy of the queue — entries, flush ID,
// boundary and ACK sets, undo records, retry timer, mode flags and
// counters — that drives sinks instead of q's. The copy has no probe sink.
func (q *Queue) Clone(sinks Sinks) *Queue {
	c := *q
	c.sinks = sinks
	c.probe = nil
	c.entries = append([]Entry(nil), q.entries...)
	c.undoRecs = append([]undoRec(nil), q.undoRecs...)
	c.bdryRcvd = maps.Clone(q.bdryRcvd)
	c.bdryAcks = maps.Clone(q.bdryAcks)
	c.flushAcks = maps.Clone(q.flushAcks)
	return &c
}

// EnableRetry arms the reliable-delivery machinery: retransmission of
// boundary replays for missing bdry-ACKs with exponential backoff. The
// machine calls it when a fault injector is attached; without it the queue
// behaves exactly as the perfect-fabric protocol, decision for decision.
func (q *Queue) EnableRetry() { q.retryEnabled = true }

// SetDegraded switches the queue into degraded eager-persist mode — the
// §IV-D deadlock-escape generalized to every region: when the normal gated
// walk has nothing to do, the oldest entry is flushed ahead of its region's
// global confirmation with its pre-image undo-logged, so a controller that
// fell behind (stuck window, exhausted retry budget against it) drains its
// backlog at PM bandwidth instead of wedging the persist path. Commits
// retire a region's undo records; records of regions that never confirm are
// rolled back by recovery, preserving all-or-nothing region persistence.
func (q *Queue) SetDegraded() { q.degraded = true }

// Degraded reports whether the queue is in degraded eager-persist mode.
func (q *Queue) Degraded() bool { return q.degraded }

// SetProbe attaches an instrumentation sink (nil detaches).
func (q *Queue) SetProbe(s probe.Sink) { q.probe = s }

// emit sends ev, stamped with this controller's ID, to the probe sink.
func (q *Queue) emit(ev probe.Event) {
	if q.probe != nil {
		ev.MC = q.cfg.ID
		q.probe.Emit(ev)
	}
}

// Len returns the current occupancy.
func (q *Queue) Len() int { return len(q.entries) }

// FlushID returns the latest unpersisted region at this controller.
func (q *Queue) FlushID() uint64 { return q.flushID }

// InOverflow reports whether the deadlock-escape path is active.
func (q *Queue) InOverflow() bool { return q.overflow }

// Empty reports whether no entries are pending.
func (q *Queue) Empty() bool { return len(q.entries) == 0 }

// Search performs the CAM lookup of §IV-H for an LLC load miss: it reports
// whether addr has a quarantined entry (whose value is newer than PM's).
func (q *Queue) Search(addr uint64) bool {
	q.CAMSearches++
	for i := range q.entries {
		if q.entries[i].Addr == addr {
			q.CAMHits++
			return true
		}
	}
	return false
}

// recordBoundary notes that region r's boundary reached this controller at
// cycle now and acknowledges it to every other controller.
func (q *Queue) recordBoundary(now, r uint64) {
	if q.bdryRcvd[r] {
		return
	}
	q.bdryRcvd[r] = true
	if r == q.flushID {
		q.confirm()
	}
	for m := 0; m < q.cfg.NumMCs; m++ {
		if m != q.cfg.ID {
			q.sinks.Send(noc.Message{Kind: noc.MsgBdryAck, Region: r, From: q.cfg.ID, To: m})
		}
	}
	if q.overflow && r == q.flushID {
		// The awaited boundary arrived; the escape path ends and the
		// region completes through the normal protocol.
		q.overflow = false
		q.emit(probe.Event{Kind: probe.WPQOverflowExit, Cycle: now, Core: -1, Region: r})
	}
}

// AcceptControl ingests, at cycle now, a boundary replica that carries no
// data (delivered to a non-home controller). It always succeeds: control
// messages need no queue slot.
func (q *Queue) AcceptControl(now, region uint64) {
	if q.cfg.Mode == Gated {
		q.recordBoundary(now, region)
	}
}

// Accept tries to ingest a data entry at cycle now. false means the
// persist-path channel must retry later (queue full, or overflow mode
// declining other regions' stores).
func (q *Queue) Accept(now uint64, e Entry) bool {
	full := len(q.entries) >= q.cfg.Entries
	if q.cfg.Mode == Gated && full && !q.bdryRcvd[q.flushID] && !q.overflow {
		// Deadlock: the queue is full and cannot receive the boundary
		// its oldest entries wait for (§IV-D).
		q.overflow = true
		q.Deadlocks++
		q.emit(probe.Event{Kind: probe.WPQOverflowEnter, Cycle: now, Core: -1, Region: q.flushID})
	}
	if q.cfg.Mode == Gated && q.overflow {
		// §IV-D: during overflow, only the currently persisting
		// region's stores are accepted — and those are accepted even
		// beyond capacity ("exceptionally lets the WPQ overflow"),
		// since the escape path is actively draining them with their
		// pre-images undo-logged. In particular the region's boundary
		// must be able to enter, or the system could never leave
		// overflow. The excess is bounded by the compiler's per-region
		// store threshold.
		if e.Region != q.flushID {
			q.FullRejects++
			return false
		}
	} else if full {
		q.FullRejects++
		return false
	}
	q.entries = append(q.entries, e)
	if len(q.entries) > q.MaxOccupancy {
		q.MaxOccupancy = len(q.entries)
	}
	q.emit(probe.Event{Kind: probe.WPQEnqueue, Cycle: now, Core: e.Core,
		Region: e.Region, Addr: e.Addr, Arg: uint64(len(q.entries))})
	if e.Boundary && q.cfg.Mode == Gated {
		q.recordBoundary(now, e.Region)
	}
	return true
}

// OnMessage ingests a protocol message from another controller at cycle now.
func (q *Queue) OnMessage(now uint64, m noc.Message) {
	if q.cfg.Mode != Gated {
		return
	}
	if m.Kind == noc.MsgBdryAck {
		q.emit(probe.Event{Kind: probe.BoundaryAck, Cycle: now, Core: -1, Region: m.Region})
	}
	if m.Kind == noc.MsgBdryReplay {
		// A stalled peer is soliciting a (re-)ACK for m.Region. Reply iff
		// this controller has the boundary — including when the region
		// already committed here, since the original ACK may have been
		// lost. A replay never creates boundary knowledge: that only ever
		// arrives through this controller's own persist path, which is
		// what guarantees its portion of the region is complete.
		if m.Region < q.flushID || q.bdryRcvd[m.Region] {
			q.sinks.Send(noc.Message{Kind: noc.MsgBdryAck, Region: m.Region, From: q.cfg.ID, To: m.From})
		}
		return
	}
	if m.Region < q.flushID {
		return // stale bookkeeping for an already-committed region
	}
	switch m.Kind {
	case noc.MsgBdryAck:
		q.recordAck(now, q.bdryAcks, m)
		if m.Region == q.flushID {
			q.confirm()
		}
	case noc.MsgFlushAck:
		q.recordAck(now, q.flushAcks, m)
	case noc.MsgBoundary:
		q.recordBoundary(now, m.Region)
	}
}

// OnMessageSync ingests a message while temporarily routing any replies
// through exchange instead of the (dead, at power failure) NoC. Used by the
// power-failure drain, where ACK exchanges complete synchronously on
// battery power.
func (q *Queue) OnMessageSync(now uint64, m noc.Message, exchange func(m noc.Message)) {
	saved := q.sinks.Send
	q.sinks.Send = exchange
	defer func() { q.sinks.Send = saved }()
	q.OnMessage(now, m)
}

// recordAck notes that m.From acknowledged m.Region. Per-peer sets make
// duplicated and re-solicited ACKs idempotent; the test-only BrokenDupAcks
// config counts them instead, re-creating the pre-reliable-delivery bug.
func (q *Queue) recordAck(now uint64, acks map[uint64]uint64, m noc.Message) {
	if q.cfg.BrokenDupAcks {
		acks[m.Region]++
		return
	}
	bit := uint64(1) << uint(m.From)
	if acks[m.Region]&bit != 0 {
		q.DupSuppressed++
		q.emit(probe.Event{Kind: probe.FabricDupSuppressed, Cycle: now,
			Core: -1, Region: m.Region, Arg: uint64(m.From)})
		return
	}
	acks[m.Region] |= bit
}

// peerMask is the bdry-ACK set that confirms a region: every controller but
// this one.
func (q *Queue) peerMask() uint64 {
	return (uint64(1)<<uint(q.cfg.NumMCs) - 1) &^ (uint64(1) << uint(q.cfg.ID))
}

// confirm recomputes flushReady from the boundary and ACK maps.
func (q *Queue) confirm() { q.flushReady = q.canFlush(q.flushID) }

// canFlush reports whether region r's quarantine may open: its boundary
// reached this controller and every other controller acknowledged it.
// Readers use flushReady, its stored answer for the flush region.
func (q *Queue) canFlush(r uint64) bool {
	if !q.bdryRcvd[r] {
		return false
	}
	if q.cfg.BrokenDupAcks {
		return q.bdryAcks[r] >= uint64(q.cfg.NumMCs-1)
	}
	return q.bdryAcks[r] == q.peerMask()
}

// tickRetry drives the reliable-delivery timer: when the flush region has
// its boundary but is missing bdry-ACKs, retransmit boundary replays to the
// silent peers with bounded exponential backoff. Once the retry budget is
// exhausted the silent peers are reported via Sinks.OnPeerTimeout (the
// machine declares them degraded) and replaying continues at the maximum
// backoff, so delivery still eventually succeeds under any drop rate.
func (q *Queue) tickRetry(now uint64) {
	fid := q.flushID
	if q.flushReady || !q.bdryRcvd[fid] {
		// Nothing to solicit: either the boundary hasn't arrived here yet
		// (our own persist path will deliver it) or the region is fully
		// acknowledged.
		q.retryArmed = false
		return
	}
	if !q.retryArmed || q.retryRegion != fid {
		q.retryArmed, q.retryRegion, q.retryCount = true, fid, 0
		q.retryAt = now + q.cfg.RetryTimeout
		return
	}
	if now < q.retryAt {
		return
	}
	exhausted := q.retryCount >= q.cfg.RetryBudget
	if !exhausted {
		q.retryCount++
	}
	q.retryAt = now + q.cfg.RetryTimeout<<uint(q.retryCount)
	for m := 0; m < q.cfg.NumMCs; m++ {
		if m == q.cfg.ID || (q.bdryAcks[fid]>>uint(m))&1 != 0 {
			continue
		}
		if exhausted && q.sinks.OnPeerTimeout != nil {
			q.sinks.OnPeerTimeout(m)
		}
		q.sinks.Send(noc.Message{Kind: noc.MsgBdryReplay, Region: fid, From: q.cfg.ID, To: m})
		q.Retries++
		q.emit(probe.Event{Kind: probe.FabricRetry, Cycle: now,
			Core: -1, Region: fid, Arg: uint64(q.retryCount)})
	}
}

// Reannounce re-broadcasts a boundary replay for every uncommitted region
// this controller has received, soliciting fresh ACKs from every peer. The
// power-failure drain runs one synchronous Reannounce round (exchange
// delivers immediately, on battery power) before the flush verdicts when a
// fault injector was attached: it heals ACKs the faulty fabric dropped, so
// every controller's view of which boundaries are global is symmetric again
// — exactly the fault-free invariant the drain protocol assumes.
func (q *Queue) Reannounce(exchange func(m noc.Message)) {
	if q.cfg.Mode != Gated {
		return
	}
	regions := make([]uint64, 0, len(q.bdryRcvd))
	for r := range q.bdryRcvd {
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	for _, r := range regions {
		for m := 0; m < q.cfg.NumMCs; m++ {
			if m != q.cfg.ID {
				exchange(noc.Message{Kind: noc.MsgBdryReplay, Region: r, From: q.cfg.ID, To: m})
			}
		}
	}
}

// Tick advances the queue one cycle.
func (q *Queue) Tick(now uint64) {
	if q.cfg.Mode == FIFO {
		q.tickFIFO(now)
		return
	}
	if q.retryEnabled {
		// The retransmission timer is control-plane logic, independent of
		// the PM write port — this branch is the persist path's entire
		// fault-free overhead.
		q.tickRetry(now)
	}
	q.tickGated(now)
}

func (q *Queue) tickFIFO(now uint64) {
	if now < q.busyUntil || len(q.entries) == 0 {
		return
	}
	e := q.entries[0]
	q.entries = q.entries[1:]
	q.writePM(now, e)
	q.busyUntil = now + q.cfg.PMWriteInterval + q.cfg.PMWriteExtra
}

// tickGated advances the LRPO flush pipeline. The flush ID walks regions in
// order; region r's entries flush to PM once r is globally confirmed (its
// boundary reached every controller — canFlush) and every older region's
// local entries are already flushed (the serial walk guarantees this). The
// controller does not wait for other controllers' flush progress: once a
// region is boundary-confirmed it is guaranteed durable — its remaining
// entries sit in battery-backed WPQs that the §IV-F drain protocol flushes
// even across a power failure — so per-controller flushing pipelines across
// regions and the ACK latency stays completely off the critical path, which
// is what lets LRPO hide the persistence latency (§III-B). Flush-ACKs are
// still exchanged as the paper describes; they serve as bookkeeping (and
// statistics) rather than as a flush precondition.
func (q *Queue) tickGated(now uint64) {
	if now < q.busyUntil {
		return
	}
	// Advance through committable regions. Regions with no local entries
	// are pure register increments, so several can retire per cycle (the
	// fast-forward bound models the flush-ID update logic's throughput);
	// flushing a data entry occupies the PM write port and ends the turn.
	for hop := 0; hop < 4; hop++ {
		fid := q.flushID
		if !q.flushReady {
			break
		}
		if i := q.findRegion(fid); i >= 0 {
			e := q.entries[i]
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			q.writePM(now, e)
			q.busyUntil = now + q.cfg.PMWriteInterval
			return
		}
		// Locally complete: announce and advance to the next region.
		for m := 0; m < q.cfg.NumMCs; m++ {
			if m != q.cfg.ID {
				q.sinks.Send(noc.Message{Kind: noc.MsgFlushAck, Region: fid, From: q.cfg.ID, To: m})
			}
		}
		q.commit(fid)
	}
	if q.overflow || q.degraded {
		// Escape path (§IV-D): flush ahead of global confirmation with the
		// pre-image undo-logged, so recovery can revert the write if the
		// region's boundary never becomes global. Overflow mode drains the
		// currently persisting region; degraded mode generalizes it to the
		// oldest entry of any region, which is what lets a degraded
		// controller work off its backlog at PM bandwidth.
		i := -1
		if q.overflow {
			i = q.findRegion(q.flushID)
		}
		if i < 0 && q.degraded && len(q.entries) > 0 {
			i = 0
		}
		if i >= 0 {
			e := q.entries[i]
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			q.undoLog(e.Addr, e.Region)
			q.emit(probe.Event{Kind: probe.WPQUndo, Cycle: now,
				Core: -1, Addr: e.Addr, Arg: uint64(len(q.undoRecs))})
			q.writePM(now, e)
			q.busyUntil = now + q.cfg.PMWriteInterval + q.cfg.PMWriteExtra + q.cfg.PMWriteInterval
		}
	}
}

// NoEvent is NextEvent's result when the queue has no scheduled activity.
const NoEvent = ^uint64(0)

// NextEvent returns the earliest cycle strictly after now at which Tick
// would do observable work, given no further entry or message arrives. It
// may be conservative (an early tick finds nothing to do and is a pure
// no-op) but never late: every cycle in (now, NextEvent) is provably an
// idle tick with no state change, statistic, or probe event. A queue
// waiting on external input (a boundary, an ACK) reports NoEvent — the
// delivery that unblocks it is another component's event, and the
// scheduler recomputes after every real tick.
func (q *Queue) NextEvent(now uint64) uint64 {
	if q.cfg.Mode == FIFO {
		if len(q.entries) == 0 {
			return NoEvent
		}
		return laterOf(now+1, q.busyUntil)
	}
	next := uint64(NoEvent)
	if q.retryEnabled {
		// The retransmission timer acts only when the flush region has its
		// boundary but is missing bdry-ACKs. Arming must happen on the very
		// next tick — the arming cycle fixes the retry deadline — and an
		// armed timer fires at retryAt. Disarming (wantsRetry false with the
		// timer still armed) is cycle-independent: deferring it to the next
		// real tick leaves identical observable state, because flushID is
		// monotonic and a later re-arm always goes through the
		// retryRegion-mismatch branch with the same resulting timer.
		fid := q.flushID
		if !q.flushReady && q.bdryRcvd[fid] {
			if q.retryArmed && q.retryRegion == fid {
				next = laterOf(now+1, q.retryAt)
			} else {
				return now + 1
			}
		}
	}
	// The gated flush walk has work exactly when the flush region is
	// globally confirmed, or an escape path (overflow, degraded) has an
	// eligible entry; the PM write port gates it by busyUntil.
	if q.flushReady ||
		(q.overflow && q.findRegion(q.flushID) >= 0) ||
		(q.degraded && len(q.entries) > 0) {
		if ev := laterOf(now+1, q.busyUntil); ev < next {
			next = ev
		}
	}
	return next
}

func laterOf(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func (q *Queue) findRegion(r uint64) int {
	for i := range q.entries {
		if q.entries[i].Region == r {
			return i
		}
	}
	return -1
}

// writePM persists e, which has already left the queue, at cycle now.
func (q *Queue) writePM(now uint64, e Entry) {
	q.sinks.PMWrite(e.Addr, e.Val)
	q.Flushed++
	if q.sinks.OnFlush != nil {
		q.sinks.OnFlush(e)
	}
	// +1 restores the occupancy the flush sampled.
	q.emit(probe.Event{Kind: probe.WPQFlush, Cycle: now, Core: e.Core,
		Region: e.Region, Addr: e.Addr, Arg: uint64(len(q.entries) + 1)})
}

// Undo-log layout in PM: header word (record count) followed by
// (address, old value) pairs. The log is written before the data (write
// ahead), and invalidated by zeroing the header when its region commits.
func (q *Queue) undoBase() uint64 { return mem.UndoLogAddr(q.cfg.ID, 0) }

func (q *Queue) undoLog(addr, region uint64) {
	old := q.sinks.PMRead(addr)
	base := q.undoBase()
	rec := base + 8 + uint64(len(q.undoRecs))*16
	q.sinks.PMWrite(rec, addr)
	q.sinks.PMWrite(rec+8, old)
	q.undoRecs = append(q.undoRecs, undoRec{addr: addr, old: old, region: region})
	q.sinks.PMWrite(base, uint64(len(q.undoRecs)))
	q.UndoWrites++
}

func (q *Queue) commit(fid uint64) {
	if len(q.undoRecs) > 0 {
		// The region completed: its undo records are obsolete. Degraded
		// mode may have eager-flushed later regions too — their records
		// must stay live, so the surviving tail is compacted to the log
		// head before the header shrinks.
		keep := q.undoRecs[:0]
		for _, r := range q.undoRecs {
			if r.region > fid {
				keep = append(keep, r)
			}
		}
		if len(keep) == 0 {
			q.sinks.PMWrite(q.undoBase(), 0)
		} else if len(keep) != len(q.undoRecs) {
			base := q.undoBase()
			for i, r := range keep {
				rec := base + 8 + uint64(i)*16
				q.sinks.PMWrite(rec, r.addr)
				q.sinks.PMWrite(rec+8, r.old)
			}
			q.sinks.PMWrite(base, uint64(len(keep)))
		}
		q.undoRecs = keep
	}
	delete(q.bdryRcvd, fid)
	delete(q.bdryAcks, fid)
	delete(q.flushAcks, fid)
	q.flushID++
	q.confirm()
	q.Committed++
}

// DrainStep implements one round of the controller side of the power-failure
// protocol (§IV-F) at cycle now: with cores dead and in-flight MC↔MC ACKs
// delivered, it flushes the entries of every region whose boundary provably
// reached all controllers, exchanging ACKs instantly over battery power
// (exchange must deliver a message to its destination queue synchronously).
// It returns whether it made progress; the orchestrator keeps stepping all
// controllers until none does — a flush-ACK from one controller can unblock
// a commit at another.
func (q *Queue) DrainStep(now uint64, exchange func(m noc.Message)) (progress bool) {
	if q.cfg.Mode != Gated {
		return false
	}
	saved := q.sinks.Send
	q.sinks.Send = exchange
	defer func() { q.sinks.Send = saved }()
	for q.flushReady {
		fid := q.flushID
		for {
			i := q.findRegion(fid)
			if i < 0 {
				break
			}
			e := q.entries[i]
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			q.writePM(now, e)
			progress = true
		}
		for m := 0; m < q.cfg.NumMCs; m++ {
			if m != q.cfg.ID {
				exchange(noc.Message{Kind: noc.MsgFlushAck, Region: fid, From: q.cfg.ID, To: m})
			}
		}
		q.commit(fid)
		progress = true
	}
	return progress
}

// Discard drops the remaining entries — the stores of unpersisted regions,
// which "naturally disappear with the power failure" (§III-E). It returns
// how many were dropped.
func (q *Queue) Discard() int {
	n := len(q.entries)
	q.entries = nil
	return n
}

// RecoverUndo rolls back any undo-logged overflow writes whose region never
// committed, reading the log from PM and restoring pre-images in reverse
// order (§IV-D). It returns the number of records rolled back.
func RecoverUndo(mcID int, pmRead func(uint64) uint64, pmWrite func(addr, val uint64)) int {
	base := mem.UndoLogAddr(mcID, 0)
	count := int(pmRead(base))
	for i := count - 1; i >= 0; i-- {
		rec := base + 8 + uint64(i)*16
		addr := pmRead(rec)
		old := pmRead(rec + 8)
		pmWrite(addr, old)
	}
	pmWrite(base, 0)
	return count
}

func (q *Queue) String() string {
	return fmt.Sprintf("wpq[mc%d mode=%d len=%d flushID=%d overflow=%v]",
		q.cfg.ID, q.cfg.Mode, len(q.entries), q.flushID, q.overflow)
}
