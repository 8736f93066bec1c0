package machine

import (
	"lightwsp/internal/mem"
	"lightwsp/internal/noc"
	"lightwsp/internal/probe"
)

// FailureReport summarises a power failure's drain protocol.
type FailureReport struct {
	// Cycle is when the power was cut.
	Cycle uint64
	// Discarded counts WPQ entries of unpersisted regions dropped.
	Discarded int
	// RegionCounter is the global region counter at failure time; the
	// recovery runtime seeds fresh region IDs above it.
	RegionCounter uint64
}

// PowerFail cuts the power at the current cycle and executes the §IV-F
// protocol: cores, caches, store buffers and persist paths are volatile and
// lose everything; in-flight MC↔MC ACKs are delivered on battery; every
// region whose boundary provably reached all controllers flushes from the
// WPQ to PM; the remaining entries are discarded. Afterwards the PM image is
// exactly the crash state the recovery runtime starts from. The machine is
// dead after this call — build a recovered system to continue.
func (s *System) PowerFail() FailureReport {
	if s.probe != nil {
		s.probe.Emit(probe.Event{Kind: probe.PowerFailCut, Cycle: s.cycle,
			Core: -1, MC: -1})
	}

	// (0) Volatile state disappears with the cores.
	for _, c := range s.cores {
		c.sb = nil
		c.halted = true
		if c.path != nil {
			c.path.DropAll()
		}
	}
	s.runningCores, s.sbPending, s.pathPending = 0, 0, 0

	rep := s.drain()
	s.wpqPending = 0
	if s.probe != nil {
		s.probe.Emit(probe.Event{Kind: probe.PowerFailDrained, Cycle: s.cycle,
			Core: -1, MC: -1, Arg: uint64(rep.Discarded)})
	}
	s.finalizeStats()
	s.Stats.Cycles = s.cycle
	return rep
}

// CrashImage returns the crash image and drain report PowerFail would
// produce at the current cycle, and leaves the machine running. The drain
// runs on a battery copy (see batteryCopy), so the live machine's PM pages,
// WPQ entries, ACK sets, undo records, NoC queue and fault-injector stream
// are untouched and no probe event is emitted: stepping on and calling
// CrashImage again at a later cycle is the same as a fresh machine's
// PowerFail there. The returned image is the caller's own.
func (s *System) CrashImage() (*mem.Image, FailureReport) {
	c := s.batteryCopy()
	rep := c.drain()
	return c.pm, rep
}

// batteryCopy returns a machine holding copies of exactly the state the
// §IV-F drain reads — the PM image, the WPQs, the in-flight and parked
// MC↔MC messages and the fault injector — wired to itself. It has no cores,
// caches or probe sink and can do nothing but drain. The injector is copied
// because any consultation advances its decision counter, which would shift
// every later fault decision of the live machine.
func (s *System) batteryCopy() *System {
	c := &System{
		pm:            s.pm.Clone(),
		net:           s.net.Clone(),
		cycle:         s.cycle,
		regionCounter: s.regionCounter,
		inj:           s.inj.Clone(),
		parked:        append([]noc.Message(nil), s.parked...),
	}
	c.net.SetInjector(c.inj)
	for _, m := range s.mcs {
		c.mcs = append(c.mcs, &mc{id: m.id, q: m.q.Clone(c.queueSinks())})
	}
	return c
}

// drain runs steps (1)–(6) of the §IV-F protocol on the battery-backed
// state: the PM image, the WPQs, the MC↔MC messages in flight or parked at
// a stuck controller, and whether a fault injector is attached. PowerFail
// runs it in place; CrashImage runs it on a battery copy.
func (s *System) drain() FailureReport {
	rep := FailureReport{Cycle: s.cycle, RegionCounter: s.regionCounter}
	// Boundary broadcasts still on the core side are lost; MC↔MC ACKs
	// survive on battery and are guaranteed to arrive (§IV-F step 1).
	s.net.DropCoreTraffic()
	if s.inj == nil {
		for _, m := range s.net.DrainAll() {
			s.mcs[m.To].q.OnMessage(s.cycle, m)
		}
	} else {
		// Fault-injected runs: replies (replay re-ACKs) must not enter the
		// dead NoC, so every battery delivery routes through a synchronous
		// recursive exchange. Messages parked at a stuck controller are
		// MC↔MC and battery-backed too — they arrive now. Then one
		// Reannounce round per controller re-solicits the ACKs the faulty
		// fabric dropped, restoring the fault-free drain invariant that
		// every controller's view of which boundaries are global agrees.
		var sync func(m noc.Message)
		sync = func(m noc.Message) { s.mcs[m.To].q.OnMessageSync(s.cycle, m, sync) }
		for _, m := range s.net.DrainAll() {
			sync(m)
		}
		for _, m := range s.parked {
			if m.Kind != noc.MsgBoundary {
				sync(m)
			}
		}
		s.parked = nil
		for _, ctrl := range s.mcs {
			ctrl.q.Reannounce(sync)
		}
	}

	// (2)–(5) Flush persisted regions, exchanging ACKs synchronously on
	// battery, until no controller makes progress.
	exchange := func(m noc.Message) { s.mcs[m.To].q.OnMessage(s.cycle, m) }
	for {
		progress := false
		for _, m := range s.mcs {
			progress = m.q.DrainStep(s.cycle, exchange) || progress
		}
		if !progress {
			break
		}
	}

	// (6) Discard the stores of unpersisted regions.
	for _, m := range s.mcs {
		rep.Discarded += m.q.Discard()
	}
	return rep
}
