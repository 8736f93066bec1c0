package machine

import (
	"fmt"

	"lightwsp/internal/fifo"
	"lightwsp/internal/isa"
	"lightwsp/internal/mem"
	"lightwsp/internal/persistpath"
	"lightwsp/internal/probe"
)

// sbEntry is one store-buffer slot: a retired store awaiting its trip down
// the regular path (L1) and, under a persistence scheme, the persist path.
type sbEntry struct {
	addr, val uint64
	region    uint64
	boundary  bool
	born      uint64
}

// Core is one hardware thread: an in-order-issue, non-blocking-load engine
// that approximates the paper's 4-wide OoO core. Register readiness is
// tracked with a scoreboard so independent load misses overlap; stores
// retire into the store buffer and drain one per cycle.
type Core struct {
	id  int
	sys *System

	pc     isa.PC
	blk    []decoded // pc's block in the machine's decoded table (setPC)
	regs   [isa.NumRegs]uint64
	ready  [isa.NumRegs]uint64 // cycle each register's value is available
	sp     uint64
	region uint64
	halted bool

	sb    []sbEntry // the store buffer: a FIFO window of sbBuf
	sbBuf []sbEntry // its storage, allocated once (package fifo)
	l1    *mem.Cache
	path  *persistpath.Path // nil when the scheme has no persist path

	outstanding int    // persist entries created but not yet flushed to PM
	waitDrain   bool   // stalled at a boundary until outstanding == 0
	spinning    bool   // waiting on a lock with the region already closed
	ioPending   bool   // an Io closed its region and waits for the drain
	bubbleUntil uint64 // fetch-redirect bubble after taken control flow

	storesSinceHWBoundary int // PPA's PRF-pressure region counter

	// Region-shape accounting.
	instrInRegion  uint64
	storesInRegion int

	// FEB back-pressure burst tracking (probe-only; untouched when no
	// sink is attached).
	febStalled    bool
	febStallStart uint64
}

// ThreadState is the architectural state a thread resumes with (recovery).
type ThreadState struct {
	PC   isa.PC
	Regs [isa.NumRegs]uint64
	SP   uint64
}

// setPC moves the core to pc and keeps pc's block of decoded instructions,
// so the instruction at pc is c.blk[pc.Index] until control leaves the block.
func (c *Core) setPC(pc isa.PC) {
	c.pc = pc
	c.blk = c.sys.code[pc.Func][pc.Block]
}

// operandsAt returns the cycle at which every source register of d is
// available: d can issue at any cycle not before it.
func (c *Core) operandsAt(d *decoded) uint64 {
	at := uint64(0)
	for _, r := range d.uses[:d.n] {
		if c.ready[r] > at {
			at = c.ready[r]
		}
	}
	return at
}

// pushStore appends a store to the store buffer; the caller must have
// verified space with sbRoom.
func (c *Core) pushStore(addr, val, region uint64, boundary bool, now uint64) {
	c.sb = fifo.Push(c.sbBuf, c.sb, sbEntry{addr: addr, val: val, region: region, boundary: boundary, born: now})
	c.sys.sbPending++
}

func (c *Core) sbRoom(n int) bool { return len(c.sb)+n <= c.sys.cfg.SBEntries }

// emitBoundary closes the current region: it checkpoints the stack pointer
// and the recovery PC (the boundary's two persist-path slot stores), then
// allocates a fresh region ID from the global counter. cWSP-style schemes
// (StripCheckpoints) persist only the PC. When allocateNext is false (thread
// halt) the region closes without opening another, so the flush ID is never
// blocked by a region that will never end.
func (c *Core) emitBoundary(resume isa.PC, now uint64, allocateNext bool) {
	s := c.sys
	if !s.scheme.StripCheckpoints {
		c.pushStore(mem.CkptAddr(c.id, mem.CkptSlotSP), c.sp, c.region, false, now)
		s.arch.Write(mem.CkptAddr(c.id, mem.CkptSlotSP), c.sp)
	}
	c.pushStore(mem.CkptAddr(c.id, mem.CkptSlotPC), resume.Pack(), c.region, true, now)
	s.arch.Write(mem.CkptAddr(c.id, mem.CkptSlotPC), resume.Pack())

	s.Stats.RegionsClosed++
	s.Stats.InstrInRegions += c.instrInRegion
	s.Stats.StoresInRegions += uint64(c.storesInRegion)
	if c.storesInRegion > s.Stats.MaxDynRegionStores {
		s.Stats.MaxDynRegionStores = c.storesInRegion
	}
	if s.probe != nil {
		s.probe.Emit(probe.Event{Kind: probe.RegionClose, Cycle: now,
			Core: c.id, MC: -1, Region: c.region, Arg: uint64(c.storesInRegion)})
	}
	c.instrInRegion = 0
	c.storesInRegion = 0

	if allocateNext {
		c.region = s.nextRegion()
		if s.probe != nil {
			s.probe.Emit(probe.Event{Kind: probe.RegionOpen, Cycle: now,
				Core: c.id, MC: -1, Region: c.region})
		}
	}
	if s.scheme.StallAtBoundary {
		c.waitDrain = true
	}
}

// boundaryCost is how many store-buffer slots a boundary needs.
func (c *Core) boundaryCost() int {
	if c.sys.scheme.StripCheckpoints {
		return 1
	}
	return 2
}

// tick advances the core one cycle: drain the store buffer, then issue.
func (c *Core) tick(now uint64) {
	if c.halted && len(c.sb) == 0 {
		return
	}
	c.drainSB(now)
	if c.halted {
		return
	}
	if c.waitDrain {
		if c.outstanding == 0 && (c.path == nil || c.path.Empty()) && len(c.sb) == 0 {
			c.waitDrain = false
		} else {
			c.sys.Stats.StallDrain++
			return
		}
	}
	c.issue(now)
}

// drainSB retires up to one store per cycle from the store buffer into the
// L1 (regular path) and the persist path.
func (c *Core) drainSB(now uint64) {
	if len(c.sb) == 0 {
		return
	}
	e := c.sb[0]
	s := c.sys
	if c.path != nil {
		bytes := s.scheme.EntryBytes
		pe := persistpath.Entry{
			Addr: e.addr, Val: e.val, Region: e.region, Boundary: e.boundary,
			Core: c.id, Bytes: bytes, Born: e.born,
		}
		if !c.path.Enqueue(pe) {
			s.Stats.StallFEBFull++
			if s.probe != nil && !c.febStalled {
				c.febStalled = true
				c.febStallStart = now
				s.probe.Emit(probe.Event{Kind: probe.FEBStallStart, Cycle: now,
					Core: c.id, MC: -1})
			}
			return // back pressure: the store stays in the buffer
		}
		if c.febStalled {
			c.febStalled = false
			if s.probe != nil {
				s.probe.Emit(probe.Event{Kind: probe.FEBStallStop, Cycle: now,
					Core: c.id, MC: -1, Arg: now - c.febStallStart})
			}
		}
		c.outstanding++
		s.pathPending++
		s.Stats.PersistEntries++
	}
	// Regular path: write-allocate into L1 (checkpoint-array and stack
	// stores included — they are ordinary cached stores).
	line := mem.LineAddr(e.addr)
	if !c.l1.Lookup(line, true) {
		res := c.l1.Fill(line, true, s.cfg.VictimPolicy, c.snoopFn())
		if res.Stalled {
			// Zero-victim policy: the eviction (and hence the fill)
			// waits for the conflicting buffer entry to drain. The
			// store itself proceeds without allocating.
			s.Stats.StallEviction++
		}
		if res.EvictedValid {
			s.l2.Lookup(res.Evicted, res.EvictedDirty) // writeback touches L2
		}
		if !s.l2.Lookup(line, false) && s.scheme.UseDRAMCache {
			// The write-allocate fill reaches the memory side and
			// populates the DRAM cache (memory mode), so store-swept
			// data later hits it. No latency is charged: the drain is
			// decoupled from the pipeline (MSHR-covered).
			s.mcs[s.mcOf(e.addr)].dram.Access(line)
		}
	}
	c.sb = c.sb[1:]
	s.sbPending--
}

// snoopFn returns the buffer-snooping predicate for L1 victim selection, or
// nil when the scheme has no persist path.
func (c *Core) snoopFn() func(uint64) bool {
	if c.path == nil || c.sys.cfg.VictimPolicy == mem.StaleLoad {
		return nil
	}
	if s := c.sys; s.probe != nil {
		return func(line uint64) bool {
			hit := c.path.Snoop(line)
			if hit {
				s.probe.Emit(probe.Event{Kind: probe.SnoopHit, Cycle: s.cycle,
					Core: c.id, MC: -1, Addr: line})
			}
			return hit
		}
	}
	return c.path.Snoop
}

// issue executes up to IssueWidth instructions in order.
func (c *Core) issue(now uint64) {
	s := c.sys
	if now < c.bubbleUntil {
		return // fetch redirect after taken control flow
	}
	for slot := 0; slot < s.cfg.IssueWidth && !c.halted && !c.waitDrain; slot++ {
		d := &c.blk[c.pc.Index]
		if c.operandsAt(d) > now {
			s.Stats.StallOperand++
			return
		}
		in := d.in
		if !c.step(in, now) {
			return // structural stall (SB full, lock spin); retry next cycle
		}
		if in.Op.IsTerminator() || in.Op == isa.Call {
			// Control flow ends the issue group and redirects fetch.
			c.bubbleUntil = now + 2
			return
		}
	}
}

// step executes one instruction functionally and charges its timing.
// It returns false if the instruction could not issue this cycle.
func (c *Core) step(in *isa.Instr, now uint64) bool {
	s := c.sys
	regs := &c.regs
	next := func() { c.pc.Index++ }
	// A new definition supersedes any pending latency on the register;
	// long-latency cases below overwrite this with now+latency.
	if d, ok := in.Defs(); ok {
		c.ready[d] = now
	}
	switch in.Op {
	case isa.Nop:
		next()
	case isa.MovImm:
		regs[in.Rd] = uint64(in.Imm)
		next()
	case isa.Mov:
		regs[in.Rd] = regs[in.Rs1]
		next()
	case isa.Add:
		regs[in.Rd] = regs[in.Rs1] + regs[in.Rs2]
		next()
	case isa.AddImm:
		regs[in.Rd] = regs[in.Rs1] + uint64(in.Imm)
		next()
	case isa.Sub:
		regs[in.Rd] = regs[in.Rs1] - regs[in.Rs2]
		next()
	case isa.Mul:
		// ALU operations are single-cycle — an idealization that keeps
		// the core issue-bound, which maximizes the visibility of the
		// instrumentation's added instructions (conservative for the
		// schemes under study).
		regs[in.Rd] = regs[in.Rs1] * regs[in.Rs2]
		next()
	case isa.MulImm:
		regs[in.Rd] = regs[in.Rs1] * uint64(in.Imm)
		next()
	case isa.And:
		regs[in.Rd] = regs[in.Rs1] & regs[in.Rs2]
		next()
	case isa.Or:
		regs[in.Rd] = regs[in.Rs1] | regs[in.Rs2]
		next()
	case isa.Xor:
		regs[in.Rd] = regs[in.Rs1] ^ regs[in.Rs2]
		next()
	case isa.Shl:
		regs[in.Rd] = regs[in.Rs1] << (regs[in.Rs2] & 63)
		next()
	case isa.Shr:
		regs[in.Rd] = regs[in.Rs1] >> (regs[in.Rs2] & 63)
		next()
	case isa.CmpLT:
		regs[in.Rd] = b2u(int64(regs[in.Rs1]) < int64(regs[in.Rs2]))
		next()
	case isa.CmpEQ:
		regs[in.Rd] = b2u(regs[in.Rs1] == regs[in.Rs2])
		next()

	case isa.Load:
		addr := c.effAddr(regs[in.Rs1], in.Imm)
		regs[in.Rd] = s.arch.Read(addr)
		c.ready[in.Rd] = now + hideLatency(s.loadLatency(c, addr), s.cfg.OOOWindow)
		s.Stats.Loads++
		next()

	case isa.Store:
		if !c.sbRoom(1) {
			s.Stats.StallSBFull++
			return false
		}
		addr := c.effAddr(regs[in.Rs1], in.Imm)
		s.arch.Write(addr, regs[in.Rs2])
		c.pushStore(addr, regs[in.Rs2], c.region, false, now)
		c.noteStore()
		next()

	case isa.Jump:
		c.setPC(isa.PC{Func: c.pc.Func, Block: in.Target})

	case isa.Branch:
		if regs[in.Rs1] != 0 {
			c.setPC(isa.PC{Func: c.pc.Func, Block: in.Target})
		} else {
			c.setPC(isa.PC{Func: c.pc.Func, Block: in.Target2})
		}

	case isa.Call:
		if !c.sbRoom(1) {
			s.Stats.StallSBFull++
			return false
		}
		ret := isa.PC{Func: c.pc.Func, Block: c.pc.Block, Index: c.pc.Index + 1}
		s.arch.Write(c.sp, ret.Pack())
		c.pushStore(c.sp, ret.Pack(), c.region, false, now)
		c.noteStore()
		c.sp -= mem.WordSize
		c.setPC(isa.PC{Func: in.Target})

	case isa.Ret:
		regs[isa.RetReg] = regs[in.Rs1]
		c.sp += mem.WordSize
		retAddr := c.sp
		ret := isa.UnpackPC(s.arch.Read(retAddr))
		c.ready[isa.RetReg] = now + hideLatency(s.loadLatency(c, retAddr), s.cfg.OOOWindow)
		s.Stats.Loads++
		c.setPC(ret)

	case isa.Halt:
		if s.scheme.Instrumented {
			if !c.sbRoom(c.boundaryCost()) {
				s.Stats.StallSBFull++
				return false
			}
			c.emitBoundary(c.pc, now, false)
		}
		c.halted = true
		s.runningCores--

	case isa.Fence:
		if !c.syncBoundary(now, 0) {
			return false
		}
		next()

	case isa.AtomicAdd:
		addr := c.effAddr(regs[in.Rs1], in.Imm)
		if !c.syncBoundary(now, 1) {
			return false
		}
		old := s.arch.Read(addr)
		regs[in.Rd] = old
		s.arch.Write(addr, old+regs[in.Rs2])
		c.pushStore(addr, old+regs[in.Rs2], c.region, false, now)
		c.noteStore()
		c.ready[in.Rd] = now + s.cfg.L2Lat // atomics bypass L1
		s.Stats.Atomics++
		next()

	case isa.LockAcquire:
		addr := c.effAddr(regs[in.Rs1], in.Imm)
		// A waiting thread must not keep a region open: an open region
		// blocks the global flush-ID sequence, and a full WPQ waiting on
		// it while the lock holder is back-pressured would deadlock the
		// system (§III-C). So the current region closes when the spin
		// begins — recovery then re-executes the acquire — and a fresh
		// region ID is allocated only once the lock is observed free,
		// which also makes the ID sequence follow the happens-before
		// order (§III-D, Fig. 4): the new ID postdates the releaser's.
		if s.scheme.Instrumented && !c.spinning {
			if !c.sbRoom(c.boundaryCost() + 1) {
				s.Stats.StallSBFull++
				return false
			}
			c.emitBoundary(c.pc, now, false)
			c.spinning = true
		}
		if s.arch.Read(addr) != 0 {
			s.Stats.StallLockSpin++
			return false // spin: retry next cycle
		}
		if s.scheme.Instrumented {
			c.region = s.nextRegion()
			if s.probe != nil {
				s.probe.Emit(probe.Event{Kind: probe.RegionOpen, Cycle: now,
					Core: c.id, MC: -1, Region: c.region})
			}
			c.spinning = false
		} else if !c.sbRoom(1) {
			s.Stats.StallSBFull++
			return false
		}
		s.arch.Write(addr, uint64(c.id)+1)
		c.pushStore(addr, uint64(c.id)+1, c.region, false, now)
		c.noteStore()
		s.Stats.Atomics++
		next()

	case isa.LockRelease:
		addr := c.effAddr(regs[in.Rs1], in.Imm)
		if !c.syncBoundary(now, 1) {
			return false
		}
		s.arch.Write(addr, 0)
		c.pushStore(addr, 0, c.region, false, now)
		c.noteStore()
		s.Stats.Atomics++
		next()

	case isa.Io:
		// Irrevocable operation (§IV-A): close the current region with
		// the Io itself as the recovery point, wait until every prior
		// store has persisted, then perform the external effect. A
		// power failure therefore either precedes the effect (recovery
		// re-runs the Io — restartable I/O) or follows a state in which
		// everything the Io depended on is durable.
		if s.scheme.Instrumented {
			if !c.ioPending {
				if !c.syncBoundary(now, 0) {
					return false
				}
				c.ioPending = true
				c.waitDrain = true
				return false
			}
			c.ioPending = false
		}
		s.Output = append(s.Output, regs[in.Rs1])
		s.Stats.IOOps++
		next()

	case isa.Boundary:
		if !c.sbRoom(c.boundaryCost()) {
			s.Stats.StallSBFull++
			return false
		}
		resume := isa.PC{Func: c.pc.Func, Block: c.pc.Block, Index: c.pc.Index + 1}
		c.emitBoundary(resume, now, true)
		s.Stats.Boundaries++
		next()

	case isa.CkptStore:
		if !c.sbRoom(1) {
			s.Stats.StallSBFull++
			return false
		}
		slot := mem.CkptAddr(c.id, int(in.Rs1))
		s.arch.Write(slot, regs[in.Rs1])
		c.pushStore(slot, regs[in.Rs1], c.region, false, now)
		c.noteStore()
		s.Stats.Checkpoints++
		next()

	default:
		panic(fmt.Sprintf("machine: unknown opcode %s at %v", in.Op, c.pc))
	}

	s.Stats.Instructions++
	c.instrInRegion++
	return true
}

// syncBoundary performs the implicit hardware boundary at a synchronization
// instruction (§III-D): the current region closes with the sync's own PC as
// the recovery point, and the sync's effects belong to the freshly
// allocated region — which is what makes the region-ID sequence follow the
// happens-before order (Fig. 4). extraStores is the sync's own store count,
// reserved in the store buffer together with the boundary slots.
//
// Under non-instrumented schemes a sync is just its memory operation.
func (c *Core) syncBoundary(now uint64, extraStores int) bool {
	if !c.sys.scheme.Instrumented {
		return c.sbRoom(extraStores)
	}
	if !c.sbRoom(c.boundaryCost() + extraStores) {
		c.sys.Stats.StallSBFull++
		return false
	}
	c.emitBoundary(c.pc, now, true)
	return true
}

// noteStore counts a persist-path store and, for PPA's hardware regions,
// ends the region when the PRF-pressure budget is exhausted.
func (c *Core) noteStore() {
	s := c.sys
	s.Stats.Stores++
	c.storesInRegion++
	if s.scheme.HWRegionStores > 0 {
		c.storesSinceHWBoundary++
		if c.storesSinceHWBoundary >= s.scheme.HWRegionStores {
			c.storesSinceHWBoundary = 0
			c.waitDrain = true
			s.Stats.RegionsClosed++
			s.Stats.InstrInRegions += c.instrInRegion
			s.Stats.StoresInRegions += uint64(c.storesInRegion)
			c.instrInRegion = 0
			c.storesInRegion = 0
		}
	}
}

// effAddr computes and sanity-checks an effective address.
func (c *Core) effAddr(base uint64, imm int64) uint64 {
	addr := base + uint64(imm)
	if !mem.Align8(addr) {
		panic(fmt.Sprintf("machine: core %d unaligned access %#x at %v", c.id, addr, c.pc))
	}
	if addr >= mem.PMSize {
		panic(fmt.Sprintf("machine: core %d access %#x beyond PM at %v", c.id, addr, c.pc))
	}
	return addr
}

// nextEvent returns the earliest cycle strictly after now at which tick
// would do observable work, assuming no other component acts first. The
// contract is one-sided: the result may be early (the extra tick repeats a
// stall and is accounted identically) but never late. A core that can only
// be woken externally — waitDrain with unmet conditions — reports noEvent;
// the flush or path drain that wakes it is another component's event, and
// skipIdle accounts the per-cycle drain-stall statistic for the span.
func (c *Core) nextEvent(now uint64) uint64 {
	if len(c.sb) > 0 {
		return now + 1 // store-buffer drain (or FEB back-pressure retry) every cycle
	}
	if c.halted {
		return noEvent
	}
	if c.waitDrain {
		if c.outstanding == 0 && (c.path == nil || c.path.Empty()) {
			return now + 1 // the next tick clears the stall and issues
		}
		return noEvent
	}
	if c.bubbleUntil > now+1 {
		return c.bubbleUntil // fetch-redirect bubble: no stats, no effects
	}
	// Operand readiness of the next instruction is the only predictable
	// issue stall; everything else (lock spins read shared memory, SB-full
	// depends on same-cycle drains) must be retried per cycle.
	return max(now+1, c.operandsAt(&c.blk[c.pc.Index]))
}

// skipIdle applies the cumulative effect of ticking the core over an idle
// span of n cycles starting at from. The caller guarantees the span is
// quiescent for this core — nextEvent(from-1) > the span's last cycle — so
// the core's state is frozen and the only per-cycle effects are the stall
// statistics the naive stepper would have counted.
func (c *Core) skipIdle(from, n uint64) {
	if c.halted || len(c.sb) > 0 {
		return // halted-idle cores tick to nothing; sb>0 is never skipped
	}
	if c.waitDrain {
		// Unmet by construction: a satisfied waitDrain reports now+1 and
		// forbids any skip.
		c.sys.Stats.StallDrain += n
		return
	}
	if c.bubbleUntil > from {
		// The whole span sits inside the fetch-redirect bubble (nextEvent
		// stops at bubbleUntil, so a span never straddles it): no stats.
		return
	}
	// Operand stall: nextEvent beyond the span means some source register
	// stays unready through every cycle of it.
	c.sys.Stats.StallOperand += n
}

// hideLatency models the out-of-order window: a consumer of a load pays
// only the part of the latency the window cannot hide.
func hideLatency(lat, window uint64) uint64 {
	if lat <= window {
		return 1
	}
	return lat - window
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
