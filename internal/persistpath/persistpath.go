// Package persistpath models LightWSP's repurposed non-temporal data path
// (§II-A, §III-A): a per-core front-end buffer (the write-combining buffer,
// combining disabled) feeding per-memory-controller FIFO channels under a
// fixed path bandwidth. Stores travel it in 8-byte entries tagged with their
// region ID; the region boundary travels the same FIFO, so per
// (core, controller) channel a boundary always arrives after every earlier
// store of its region — the ordering LightWSP's LRPO protocol relies on.
// Channel latencies differ per controller (the NUMA effect of §II-B), which
// is exactly the skew LRPO must tolerate.
package persistpath

import (
	"lightwsp/internal/fifo"
	"lightwsp/internal/mem"
	"lightwsp/internal/probe"
)

// Entry is one unit of persist-path traffic.
type Entry struct {
	// Addr and Val are the store's address and value (8-byte granular).
	Addr, Val uint64
	// Region is the region ID tag (§IV-B).
	Region uint64
	// Boundary marks the PC-checkpointing store that closes Region: it is
	// replicated into every channel, and its delivery tells the MC that
	// the region finished.
	Boundary bool
	// Control marks a replica of a boundary delivered to a non-home MC:
	// it signals "region finished" but occupies no WPQ entry.
	Control bool
	// Core is the issuing core (for per-core outstanding accounting).
	Core int
	// Bytes is the traffic the entry costs on the path: 8 for LightWSP's
	// word-granular entries, 64 for Capri's cacheline flushes (§II-C2).
	Bytes int
	// Born is the cycle the entry was created (store-buffer departure),
	// used for persistence-residency accounting (Eq. (1)'s Tp).
	Born uint64
}

// Config parameterizes one core's persist path.
type Config struct {
	// FEBEntries is the front-end buffer capacity (Table I: 64).
	FEBEntries int
	// BytesPerCredit and CreditCycles set the path bandwidth: every
	// CreditCycles cycles the path earns BytesPerCredit bytes of credit.
	// (2, 1) models the paper's 4 GB/s at 2 GHz; (1, 2) models 1 GB/s.
	BytesPerCredit int
	CreditCycles   uint64
	// ChannelCap bounds in-flight entries per (core, MC) channel; a full
	// channel back-pressures the front-end buffer.
	ChannelCap int
	// NumMCs is the number of memory controllers.
	NumMCs int
	// Latency returns the core→MC transit latency in cycles; unequal
	// values model NUMA skew.
	Latency func(mc int) uint64
	// MCOf maps an address to its home controller.
	MCOf func(addr uint64) int
}

type inflight struct {
	e       Entry
	arrival uint64
}

// Path is one core's persist path: front-end buffer plus channels.
type Path struct {
	cfg      Config
	feb      []Entry
	credit   int
	channels [][]inflight // per MC, FIFO
	// febBuf and chanBufs are the queues' storage, allocated once in New:
	// feb and each channel are windows of it (package fifo).
	febBuf   []Entry
	chanBufs [][]inflight
	// pending mirrors len(feb) + InFlight() so Empty and Pending are O(1):
	// a boundary leaving the front-end buffer replicates into every channel,
	// so dispatch is not occupancy-neutral.
	pending int

	// Stats.
	Dispatched     uint64 // entries that left the front-end buffer
	FEBFullCycles  uint64 // cycles the buffer rejected an enqueue
	SnoopConflicts uint64 // buffer-snooping CAM hits (§IV-G)
	SnoopSearches  uint64 // buffer-snooping CAM searches

	// probe, when set, receives boundary-broadcast events (the path is
	// where a boundary replicates into every controller channel).
	probe probe.Sink
}

// SetProbe attaches an instrumentation sink (nil detaches).
func (p *Path) SetProbe(s probe.Sink) { p.probe = s }

// New builds a persist path.
func New(cfg Config) *Path {
	p := &Path{
		cfg:      cfg,
		channels: make([][]inflight, cfg.NumMCs),
		febBuf:   fifo.Storage[Entry](cfg.FEBEntries),
		chanBufs: make([][]inflight, cfg.NumMCs),
	}
	for m := range p.chanBufs {
		p.chanBufs[m] = fifo.Storage[inflight](cfg.ChannelCap)
	}
	return p
}

// FEBLen returns the current front-end buffer occupancy.
func (p *Path) FEBLen() int { return len(p.feb) }

// InFlight returns the number of entries in the channels.
func (p *Path) InFlight() int {
	n := 0
	for _, ch := range p.channels {
		n += len(ch)
	}
	return n
}

// Empty reports whether the buffer and all channels are drained.
func (p *Path) Empty() bool { return p.pending == 0 }

// Pending returns the entries anywhere on the path (buffer plus channels)
// in O(1); the machine's completion check aggregates it.
func (p *Path) Pending() int { return p.pending }

// Enqueue appends an entry to the front-end buffer; false means the buffer
// is full and the store buffer must hold the store (back pressure).
func (p *Path) Enqueue(e Entry) bool {
	if len(p.feb) >= p.cfg.FEBEntries {
		p.FEBFullCycles++
		return false
	}
	p.feb = fifo.Push(p.febBuf, p.feb, e)
	p.pending++
	return true
}

// Snoop performs the buffer-snooping CAM search of §IV-G: it reports whether
// any front-end buffer entry falls in the given cache line. It also counts
// the search and any conflict.
func (p *Path) Snoop(lineAddr uint64) bool {
	p.SnoopSearches++
	for i := range p.feb {
		if mem.LineAddr(p.feb[i].Addr) == lineAddr {
			p.SnoopConflicts++
			return true
		}
	}
	return false
}

// ContainsAddr reports whether a word address has a pending entry anywhere
// on this path (front-end buffer or channels). Used by the stale-load
// evaluation mode.
func (p *Path) ContainsAddr(addr uint64) bool {
	for i := range p.feb {
		if p.feb[i].Addr == addr {
			return true
		}
	}
	for _, ch := range p.channels {
		for i := range ch {
			if !ch[i].e.Control && ch[i].e.Addr == addr {
				return true
			}
		}
	}
	return false
}

// Tick advances the path one cycle: it accrues bandwidth credit and moves
// front-end buffer entries into their channels while credit and channel
// space allow. Boundary entries replicate into every channel (the home MC
// receives the data store, the others a control copy) and require space in
// all of them.
func (p *Path) Tick(now uint64) {
	if cc := p.cfg.CreditCycles; cc > 1 && now%cc != 0 {
		// No credit earned this cycle, but dispatching may continue on
		// banked credit.
	} else {
		p.credit += p.cfg.BytesPerCredit
	}
	if max := p.cfg.ChannelCap * p.cfg.NumMCs * 64; p.credit > max {
		p.credit = max // cap idle accumulation
	}
	for len(p.feb) > 0 {
		e := p.feb[0]
		if p.credit < e.Bytes {
			return
		}
		if e.Boundary {
			ok := true
			for m := 0; m < p.cfg.NumMCs; m++ {
				if len(p.channels[m]) >= p.cfg.ChannelCap {
					ok = false
					break
				}
			}
			if !ok {
				return
			}
			home := p.cfg.MCOf(e.Addr)
			for m := 0; m < p.cfg.NumMCs; m++ {
				c := e
				c.Control = m != home
				p.channels[m] = fifo.Push(p.chanBufs[m], p.channels[m], inflight{e: c, arrival: now + p.cfg.Latency(m)})
			}
			p.pending += p.cfg.NumMCs - 1 // one buffer entry became NumMCs channel entries
			if p.probe != nil {
				p.probe.Emit(probe.Event{Kind: probe.BoundaryBroadcast, Cycle: now,
					Core: e.Core, MC: -1, Region: e.Region})
			}
		} else {
			m := p.cfg.MCOf(e.Addr)
			if len(p.channels[m]) >= p.cfg.ChannelCap {
				return
			}
			p.channels[m] = fifo.Push(p.chanBufs[m], p.channels[m], inflight{e: e, arrival: now + p.cfg.Latency(m)})
		}
		p.credit -= e.Bytes
		p.feb = p.feb[1:]
		p.Dispatched++
	}
}

// DeliverReady hands each channel's due entries to sink in FIFO order. sink
// returns false when the controller cannot accept the entry (WPQ full); the
// channel then blocks head-of-line until a later cycle, preserving order.
func (p *Path) DeliverReady(now uint64, sink func(mc int, e Entry) bool) {
	for m := range p.channels {
		ch := p.channels[m]
		for len(ch) > 0 && ch[0].arrival <= now {
			if !sink(m, ch[0].e) {
				break
			}
			ch = ch[1:]
			p.pending--
		}
		p.channels[m] = ch
	}
}

// DropAll models power failure: the front-end buffer and the core-side
// channels are volatile and lose their contents (§IV-F: only WPQ and the
// MC↔MC ACKs are battery-backed).
func (p *Path) DropAll() {
	p.feb = nil
	for m := range p.channels {
		p.channels[m] = nil
	}
	p.credit = 0
	p.pending = 0
}

// NoEvent is NextEvent's result for a fully drained path.
const NoEvent = ^uint64(0)

// NextEvent returns the earliest cycle strictly after now at which Tick or
// DeliverReady would do observable work, assuming no other component acts
// first. The contract is one-sided: the result may be conservative (an
// early tick is a no-op) but never late — every cycle in (now, NextEvent)
// is provably an idle tick whose only effect is bandwidth-credit accrual,
// which SkipIdle replays in bulk.
func (p *Path) NextEvent(now uint64) uint64 {
	next := uint64(NoEvent)
	for _, ch := range p.channels {
		if len(ch) == 0 {
			continue
		}
		a := ch[0].arrival
		if a <= now {
			// Head-of-line blocked delivery: the sink retry happens (and
			// may count a WPQ rejection) every cycle.
			return now + 1
		}
		if a < next {
			next = a
		}
	}
	if len(p.feb) > 0 {
		need := p.feb[0].Bytes
		if p.cfg.BytesPerCredit <= 0 {
			return now + 1 // wedged bandwidth config: step like the naive loop
		}
		if p.credit < need {
			// Credit-starved: dispatch first becomes possible at the accrual
			// that covers the head entry. Cycles in between only accrue.
			if cr := p.creditReady(now, need); cr < next {
				next = cr
			}
		} else if !p.dispatchBlocked() {
			return now + 1
		}
		// else: banked credit but no channel space — the delivery that
		// frees a slot is already covered by the channel arrivals above.
	}
	return next
}

// creditReady returns the first cycle after now whose accrual lifts credit
// to at least need bytes.
func (p *Path) creditReady(now uint64, need int) uint64 {
	bpc := p.cfg.BytesPerCredit
	k := uint64((need - p.credit + bpc - 1) / bpc)
	if cc := p.cfg.CreditCycles; cc > 1 {
		return (now/cc + k) * cc
	}
	return now + k
}

// dispatchBlocked reports whether the head entry cannot enter its channels
// for lack of space (mirrors Tick's admission checks exactly).
func (p *Path) dispatchBlocked() bool {
	e := &p.feb[0]
	if e.Boundary {
		for m := 0; m < p.cfg.NumMCs; m++ {
			if len(p.channels[m]) >= p.cfg.ChannelCap {
				return true
			}
		}
		return false
	}
	return len(p.channels[p.cfg.MCOf(e.Addr)]) >= p.cfg.ChannelCap
}

// SkipIdle applies the cumulative effect of ticking the path over the idle
// cycles from..to (inclusive) in one step: bandwidth-credit accrual under
// the same cap Tick enforces. The caller guarantees the span is quiescent —
// NextEvent(from-1) > to — so accrual is the span's only effect; capping
// once at the end equals capping per cycle because accrual is monotone.
func (p *Path) SkipIdle(from, to uint64) {
	bpc := p.cfg.BytesPerCredit
	if bpc <= 0 {
		return
	}
	var accruals uint64
	if cc := p.cfg.CreditCycles; cc > 1 {
		accruals = to/cc - (from-1)/cc
	} else {
		accruals = to - from + 1
	}
	max := p.cfg.ChannelCap * p.cfg.NumMCs * 64
	if c := uint64(p.credit) + accruals*uint64(bpc); c > uint64(max) {
		p.credit = max
	} else {
		p.credit = int(c)
	}
}
