package machine

import (
	"context"
	"fmt"

	"lightwsp/internal/faults"
	"lightwsp/internal/fifo"
	"lightwsp/internal/isa"
	"lightwsp/internal/mem"
	"lightwsp/internal/noc"
	"lightwsp/internal/persistpath"
	"lightwsp/internal/probe"
	"lightwsp/internal/wpq"
	"lightwsp/internal/wsperr"
)

// mc is one memory controller: its DRAM-cache slice and its WPQ.
type mc struct {
	id   int
	dram *mem.DRAMCache
	q    *wpq.Queue
}

// System is the whole machine.
type System struct {
	cfg    Config
	scheme Scheme
	prog   *isa.Program
	code   [][][]decoded // prog decoded, this machine's own (decode.go)

	// arch is the architectural memory (what the cores observe); pm is
	// the persisted image — the only state that survives power failure.
	arch *mem.Image
	pm   *mem.Image

	cores []*Core
	l2    *mem.Cache
	mcs   []*mc
	net   *noc.Network

	cycle         uint64
	regionCounter uint64

	// inj, when set, is the persist-fabric fault injector (SetFaultInjector);
	// nil keeps every fault consultation to a single branch.
	inj *faults.Injector
	// parked holds NoC messages addressed to a stuck controller, delivered
	// in arrival order once its window ends (they are MC↔MC and
	// battery-backed, so they are delayed, never lost).
	parked []noc.Message
	// stuckSince[mc] is the cycle the controller was first observed stuck
	// (0 = not stuck); degradedMC[mc] marks controllers declared degraded.
	stuckSince []uint64
	degradedMC []bool

	// probe, when set, receives cycle-level instrumentation events
	// (SetProbeSink); nil keeps every emit site to a single branch.
	probe probe.Sink

	// recovered marks a machine booted from a crash image, so an attached
	// sink gets the recovery milestone.
	recovered bool

	statsFinal bool // finalizeStats already folded component counters in

	// Done bookkeeping: live counters maintained at every state transition
	// so completion is an O(1) check instead of a scan of every component.
	runningCores int // cores not yet halted
	sbPending    int // store-buffer entries across all cores
	pathPending  int // persist-path entries (front-end buffers + channels)
	wpqPending   int // data entries across all WPQs

	// Event/epoch stepper state (fastpath.go).
	naiveStep bool   // true = reference per-cycle stepper
	ffSkipped uint64 // cycles fast-forwarded past
	ffJumps   uint64 // fast-forward jumps taken
	ffScans   uint64 // next-event scans (nextInteresting calls) by runLoop
	ffSkew    uint64 // test-only: offsets next-events to break the contract

	// Output is the machine's output device: the values emitted by Io
	// instructions, in emission order (§IV-A irrevocable operations).
	Output []uint64

	Stats Stats
}

// NewSystem builds and boots a machine running prog from the beginning:
// every thread starts at the program entry with its thread ID in ArgReg(0)
// and the thread count in ArgReg(1), and — for instrumented schemes — its
// initial state written to the checkpoint array (the boot-time equivalent of
// the OS initializing the recovery metadata).
func NewSystem(prog *isa.Program, cfg Config, scheme Scheme) (*System, error) {
	s, err := newBare(prog, cfg, scheme, 1)
	if err != nil {
		return nil, err
	}
	for t, c := range s.cores {
		c.setPC(isa.PC{Func: prog.Entry})
		c.regs[isa.ArgReg(0)] = uint64(t)
		c.regs[isa.ArgReg(1)] = uint64(cfg.Threads)
		c.sp = mem.StackTop(t)
		if scheme.Instrumented {
			c.region = s.nextRegion()
			s.initCheckpoint(c)
		}
	}
	return s, nil
}

// NewRecoveredSystem builds a machine resuming from a persisted image:
// caches are cold, the architectural memory is the PM image, and each
// thread starts from the given recovery state. nextRegion seeds the global
// region counter above every persisted region ID.
func NewRecoveredSystem(prog *isa.Program, cfg Config, scheme Scheme, pmImage *mem.Image, states []ThreadState, nextRegion uint64) (*System, error) {
	if len(states) != cfg.Threads {
		return nil, fmt.Errorf("machine: %d thread states for %d threads", len(states), cfg.Threads)
	}
	// The recovered controllers' flush IDs must start at the first region
	// the recovered threads will allocate — in real hardware the flush ID
	// is a persistent register and the region counter is restored from it
	// (§IV-F footnote 7).
	s, err := newBare(prog, cfg, scheme, nextRegion)
	if err != nil {
		return nil, err
	}
	s.pm = pmImage
	s.arch = pmImage.Clone()
	s.recovered = true
	for t, c := range s.cores {
		c.setPC(states[t].PC)
		c.regs = states[t].Regs
		c.sp = states[t].SP
		if scheme.Instrumented {
			c.region = s.nextRegion()
			s.initCheckpoint(c)
		}
	}
	return s, nil
}

func newBare(prog *isa.Program, cfg Config, scheme Scheme, firstRegion uint64) (*System, error) {
	if cfg.Threads < 1 || cfg.Threads > cfg.Cores {
		return nil, fmt.Errorf("machine: %d threads on %d cores", cfg.Threads, cfg.Cores)
	}
	if cfg.Cores > mem.MaxThreads {
		return nil, fmt.Errorf("machine: %d cores exceeds layout maximum %d", cfg.Cores, mem.MaxThreads)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if scheme.StripCheckpoints {
		prog = stripCheckpoints(prog)
	}
	s := &System{
		cfg:           cfg,
		scheme:        scheme,
		prog:          prog,
		code:          decode(prog),
		arch:          mem.NewImage(),
		pm:            mem.NewImage(),
		l2:            mem.NewCache(cfg.L2Size, cfg.L2Ways),
		net:           noc.New(cfg.NoCLat),
		regionCounter: firstRegion - 1,
		runningCores:  cfg.Threads,
	}
	mode := wpq.FIFO
	if scheme.GatedWPQ {
		mode = wpq.Gated
	}
	for m := 0; m < cfg.NumMCs; m++ {
		ctrl := &mc{
			id:   m,
			dram: mem.NewDRAMCache(cfg.DRAMCacheSize / uint64(cfg.NumMCs)),
		}
		ctrl.q = wpq.New(wpq.Config{
			ID: m, NumMCs: cfg.NumMCs, Entries: cfg.WPQEntries, Mode: mode,
			PMWriteInterval: cfg.PMWriteInterval, PMWriteExtra: scheme.PMWriteExtra,
			FirstRegion:  firstRegion,
			RetryTimeout: cfg.retryTimeout(), RetryBudget: cfg.retryBudget(),
			BrokenDupAcks: cfg.BrokenDupAcks,
		}, s.queueSinks())
		s.mcs = append(s.mcs, ctrl)
	}
	s.stuckSince = make([]uint64, cfg.NumMCs)
	s.degradedMC = make([]bool, cfg.NumMCs)
	// One core per thread: a core beyond the thread count would run
	// nothing, so the machine does not build it, and no tick visits it.
	for i := 0; i < cfg.Threads; i++ {
		c := &Core{id: i, sys: s, l1: mem.NewCache(cfg.L1Size, cfg.L1Ways),
			sbBuf: fifo.Storage[sbEntry](cfg.SBEntries)}
		if scheme.UsePersistPath {
			i := i
			c.path = persistpath.New(persistpath.Config{
				FEBEntries:     cfg.FEBEntries,
				BytesPerCredit: cfg.PersistBytesPerCredit,
				CreditCycles:   cfg.PersistCreditCycles,
				ChannelCap:     cfg.ChannelCap,
				NumMCs:         cfg.NumMCs,
				Latency: func(m int) uint64 {
					if m == i%cfg.NumMCs {
						return cfg.PersistLatNear
					}
					return cfg.PersistLatFar
				},
				MCOf: s.mcOf,
			})
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// queueSinks wires a controller's WPQ to this machine: its PM image, its
// NoC at the current cycle, and its flush and degradation bookkeeping.
func (s *System) queueSinks() wpq.Sinks {
	return wpq.Sinks{
		PMWrite:       s.pmWrite,
		PMRead:        func(a uint64) uint64 { return s.pm.Read(a) },
		Send:          func(msg noc.Message) { s.net.Send(s.cycle, msg) },
		OnFlush:       s.onFlush,
		OnPeerTimeout: s.onPeerTimeout,
	}
}

// stripCheckpoints removes CkptStore instructions (cWSP mode: idempotent
// regions do not checkpoint registers).
func stripCheckpoints(p *isa.Program) *isa.Program {
	q := p.Clone()
	for _, f := range q.Funcs {
		for _, b := range f.Blocks {
			out := b.Instrs[:0]
			for _, in := range b.Instrs {
				if in.Op != isa.CkptStore {
					out = append(out, in)
				}
			}
			b.Instrs = out
		}
	}
	return q
}

// initCheckpoint writes a thread's boot/recovery state into its checkpoint
// array in both images — the OS-maintained starting recovery point.
func (s *System) initCheckpoint(c *Core) {
	for r := 0; r < isa.NumRegs; r++ {
		a := mem.CkptAddr(c.id, r)
		s.arch.Write(a, c.regs[r])
		s.pm.Write(a, c.regs[r])
	}
	pcA, spA := mem.CkptAddr(c.id, mem.CkptSlotPC), mem.CkptAddr(c.id, mem.CkptSlotSP)
	s.arch.Write(pcA, c.pc.Pack())
	s.pm.Write(pcA, c.pc.Pack())
	s.arch.Write(spA, c.sp)
	s.pm.Write(spA, c.sp)
}

// mcOf maps an address to its home controller (line interleaving).
func (s *System) mcOf(addr uint64) int {
	return int(addr / mem.LineSize % uint64(s.cfg.NumMCs))
}

func (s *System) nextRegion() uint64 {
	s.regionCounter++
	return s.regionCounter
}

func (s *System) pmWrite(addr, val uint64) { s.pm.Write(addr, val) }

// onFlush settles the machine's accounting for an entry the WPQ wrote to PM.
func (s *System) onFlush(e wpq.Entry) {
	s.wpqPending--
	s.Stats.PersistFlushed++
	s.Stats.PersistResidency += s.cycle - e.Born
	if e.Core >= 0 && e.Core < len(s.cores) {
		s.cores[e.Core].outstanding--
	}
}

// SetFaultInjector attaches a persist-fabric fault injector: the NoC starts
// consulting it on every message and the WPQs arm their reliable-delivery
// retransmission machinery. Attach before Run. A nil injector (the default)
// leaves the fault-free fast paths untouched — the simulation is then
// decision-for-decision identical to a machine that never saw this call.
func (s *System) SetFaultInjector(inj *faults.Injector) {
	s.inj = inj
	s.net.SetInjector(inj)
	if inj == nil {
		return
	}
	for _, m := range s.mcs {
		m.q.EnableRetry()
	}
}

// Degraded reports whether controller mc was declared degraded.
func (s *System) Degraded(mc int) bool { return s.degradedMC[mc] }

// onPeerTimeout handles a WPQ's report that a peer stayed silent through
// the whole retry budget: the peer is declared degraded.
func (s *System) onPeerTimeout(peer int) { s.degradeMC(peer, 1) }

// degradeMC declares a controller degraded (idempotently): its WPQ falls
// back to undo-logged eager persistence so it can work off its backlog
// without global boundary confirmation, preserving all-or-nothing region
// persistence instead of wedging the persist path. Arg 0 = stuck past the
// deadline, 1 = silent through a peer's retry budget.
func (s *System) degradeMC(id int, cause uint64) {
	if s.degradedMC[id] {
		return
	}
	s.degradedMC[id] = true
	s.mcs[id].q.SetDegraded()
	s.Stats.MCDegradations++
	if s.probe != nil {
		s.probe.Emit(probe.Event{Kind: probe.MCDegraded, Cycle: s.cycle,
			Core: -1, MC: id, Region: s.mcs[id].q.FlushID(), Arg: cause})
	}
}

// tickFaults services the stuck-controller model: releases messages parked
// at controllers whose window ended, and degrades controllers stuck past
// the deadline. Called only with an injector attached.
func (s *System) tickFaults(now uint64) {
	if len(s.parked) > 0 {
		keep := s.parked[:0]
		for _, m := range s.parked {
			if s.inj.MCStuck(now, m.To) {
				keep = append(keep, m)
			} else {
				s.deliverMsg(now, m)
			}
		}
		s.parked = keep
	}
	for id := range s.mcs {
		if s.inj.MCStuck(now, id) {
			if s.stuckSince[id] == 0 {
				s.stuckSince[id] = now
			}
			if !s.degradedMC[id] && now-s.stuckSince[id] >= s.cfg.degradeDeadline() {
				s.degradeMC(id, 0)
			}
		} else {
			s.stuckSince[id] = 0
		}
	}
}

// SetProbeSink attaches a cycle-level instrumentation sink to the machine
// and all its components; pass nil to detach. Attach before Run: regions
// already open when the sink attaches are implied open at the current
// cycle's start (consumers treat a close without an open as opened at 0,
// which is exactly when NewSystem allocated the boot regions). Attaching
// to a recovered machine emits the recovery milestone.
func (s *System) SetProbeSink(sink probe.Sink) {
	s.probe = sink
	for _, c := range s.cores {
		if c.path != nil {
			c.path.SetProbe(sink)
		}
	}
	for _, m := range s.mcs {
		m.q.SetProbe(sink)
	}
	if sink != nil && s.recovered {
		sink.Emit(probe.Event{Kind: probe.RecoveryBoot, Cycle: s.cycle,
			Core: -1, MC: -1, Arg: s.regionCounter})
	}
}

// Cycle returns the current cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// Arch returns the architectural memory image.
func (s *System) Arch() *mem.Image { return s.arch }

// PM returns the persisted image.
func (s *System) PM() *mem.Image { return s.pm }

// Prog returns the program the machine runs (after any load-time stripping).
func (s *System) Prog() *isa.Program { return s.prog }

// Done reports whether execution and persistence both finished: all threads
// halted, every store buffer and persist path drained, every WPQ empty, no
// in-flight or parked messages. O(1): the counters are maintained at every
// state transition (scanDone is the reference scan, cross-checked in tests).
func (s *System) Done() bool {
	return s.runningCores == 0 && s.sbPending == 0 && s.pathPending == 0 &&
		s.wpqPending == 0 && s.net.Pending() == 0 && len(s.parked) == 0
}

// scanDone is the reference completion check: a full scan of every
// component. Done must agree with it at every cycle; tests enforce that.
func (s *System) scanDone() bool {
	for _, c := range s.cores {
		if !c.halted || len(c.sb) != 0 {
			return false
		}
		if c.path != nil && !c.path.Empty() {
			return false
		}
	}
	for _, m := range s.mcs {
		if !m.q.Empty() {
			return false
		}
	}
	return s.net.Pending() == 0 && len(s.parked) == 0
}

// Tick advances the machine one cycle.
func (s *System) Tick() {
	s.cycle++
	now := s.cycle
	for _, c := range s.cores {
		c.tick(now)
	}
	for _, c := range s.cores {
		if c.path == nil {
			continue
		}
		// The path mutates its own occupancy (boundary dispatch replicates
		// one buffer entry into every channel; deliveries pop); fold the
		// difference into the machine-wide counter.
		before := c.path.Pending()
		c.path.Tick(now)
		c.path.DeliverReady(now, s.sink)
		s.pathPending += c.path.Pending() - before
	}
	if s.inj != nil {
		s.tickFaults(now)
	}
	for _, m := range s.net.Deliver(now) {
		if s.inj != nil && s.inj.MCStuck(now, m.To) {
			// A stuck controller ingests nothing; MC↔MC messages are
			// battery-backed, so they wait instead of being lost.
			s.parked = append(s.parked, m)
			continue
		}
		s.deliverMsg(now, m)
	}
	for _, m := range s.mcs {
		if s.inj != nil && s.inj.MCStuck(now, m.id) {
			continue // a stuck controller makes no progress
		}
		m.q.Tick(now)
	}
}

// deliverMsg hands one NoC message to its controller.
func (s *System) deliverMsg(now uint64, m noc.Message) {
	s.mcs[m.To].q.OnMessage(now, m)
}

// sink delivers a persist-path entry to its controller.
func (s *System) sink(m int, e persistpath.Entry) bool {
	if s.inj != nil && s.inj.MCStuck(s.cycle, m) {
		// A stuck controller accepts nothing; the persist path holds the
		// entry and retries, so nothing is lost — the boundary-knowledge
		// invariant (knowledge only via a controller's own channel, behind
		// all of its region's stores) survives the window.
		return false
	}
	q := s.mcs[m].q
	if e.Control {
		// Boundary replicas at non-home controllers carry no data; only
		// the home copy occupies a WPQ slot and settles the core's
		// outstanding count when it flushes.
		q.AcceptControl(s.cycle, e.Region)
		return true
	}
	ok := q.Accept(s.cycle, wpq.Entry{
		Addr: e.Addr, Val: e.Val, Region: e.Region,
		Boundary: e.Boundary, Core: e.Core, Born: e.Born,
	})
	if ok {
		s.wpqPending++
	}
	return ok
}

// Run advances the machine until Done or maxCycles, returning whether the
// run completed.
func (s *System) Run(maxCycles uint64) bool {
	return s.RunContext(context.Background(), maxCycles) == nil
}

// ctxCheckBatch is how many cycles RunContext and RunUntilContext advance
// between context polls. Cancellation is therefore honored at cycle-batch
// granularity: cheap enough to be invisible on the hot loop, prompt enough
// (a batch simulates in microseconds) for request deadlines.
const ctxCheckBatch = 4096

// RunContext advances the machine until Done, the cycle budget, or ctx
// cancellation, whichever comes first. It returns nil when the run completed,
// an error wrapping wsperr.ErrCanceled when the context ended first, and an
// error wrapping wsperr.ErrWPQOverflow (a controller was wedged in the
// deadlock-escape state when the budget ran out) or wsperr.ErrCyclesExceeded
// otherwise. Context cancellation is checked every ctxCheckBatch cycles.
func (s *System) RunContext(ctx context.Context, maxCycles uint64) error {
	done, err := s.runLoop(ctx, maxCycles)
	s.Stats.Cycles = s.cycle
	if err != nil {
		return err
	}
	if !done {
		return s.budgetErr(maxCycles)
	}
	s.finalizeStats()
	return nil
}

// budgetErr classifies a blown cycle budget: a controller stuck in the
// overflow-escape state means the persist fabric wedged, not the program.
func (s *System) budgetErr(maxCycles uint64) error {
	if s.AnyWPQOverflow() {
		return fmt.Errorf("machine: %w after %d cycles", wsperr.ErrWPQOverflow, maxCycles)
	}
	return fmt.Errorf("machine: %w (%d cycles)", wsperr.ErrCyclesExceeded, maxCycles)
}

// AnyWPQOverflow reports whether any controller is currently in the §IV-D
// deadlock-escape overflow state.
func (s *System) AnyWPQOverflow() bool {
	for _, m := range s.mcs {
		if m.q.InOverflow() {
			return true
		}
	}
	return false
}

// RunUntil advances the machine to the given cycle (or completion),
// returning whether it is Done.
func (s *System) RunUntil(cycle uint64) bool {
	done, _ := s.RunUntilContext(context.Background(), cycle)
	return done
}

// RunUntilContext advances the machine to the given cycle, completion, or
// ctx cancellation. It returns (true, nil) when the machine is Done,
// (false, nil) when the target cycle was reached first, and (false, err
// wrapping wsperr.ErrCanceled) when the context ended first.
func (s *System) RunUntilContext(ctx context.Context, cycle uint64) (bool, error) {
	done, err := s.runLoop(ctx, cycle)
	s.Stats.Cycles = s.cycle
	if err != nil {
		return false, err
	}
	if done {
		s.finalizeStats()
	}
	return done, nil
}

func (s *System) finalizeStats() {
	if s.statsFinal {
		// Run/RunUntil and PowerFail can both reach here; component
		// counters must fold into Stats exactly once.
		return
	}
	s.statsFinal = true
	for _, c := range s.cores {
		s.Stats.L1Hits += c.l1.Hits
		s.Stats.L1Misses += c.l1.Misses
		if c.path != nil {
			s.Stats.SnoopConflicts += c.path.SnoopConflicts
			s.Stats.SnoopSearches += c.path.SnoopSearches
		}
	}
	s.Stats.L2Hits, s.Stats.L2Misses = s.l2.Hits, s.l2.Misses
	for _, m := range s.mcs {
		s.Stats.DRAMHits += m.dram.Hits
		s.Stats.DRAMMisses += m.dram.Misses
		s.Stats.WPQCAMHits += m.q.CAMHits
		s.Stats.WPQCAMSearches += m.q.CAMSearches
		s.Stats.WPQDeadlocks += m.q.Deadlocks
		s.Stats.WPQUndoWrites += m.q.UndoWrites
		s.Stats.WPQFullRejects += m.q.FullRejects
		s.Stats.WPQRetries += m.q.Retries
		s.Stats.WPQDupSuppressed += m.q.DupSuppressed
		if m.q.MaxOccupancy > s.Stats.WPQMaxOccupancy {
			s.Stats.WPQMaxOccupancy = m.q.MaxOccupancy
		}
	}
	if s.inj != nil {
		s.Stats.FaultDrops = s.inj.Drops
		s.Stats.FaultDups = s.inj.Dups
		s.Stats.FaultDelays = s.inj.Delays
		s.Stats.FaultReorders = s.inj.Reorders
	}
}

// loadLatency walks the hierarchy for a load and returns its latency,
// updating cache state and statistics (§IV-G snooping, §IV-H WPQ search).
func (s *System) loadLatency(c *Core, addr uint64) uint64 {
	line := mem.LineAddr(addr)
	if c.l1.Lookup(line, false) {
		return s.cfg.L1Lat
	}
	lat := s.cfg.L1Lat
	res := c.l1.Fill(line, false, s.cfg.VictimPolicy, c.snoopFn())
	if res.Stalled {
		s.Stats.StallEviction++
	}
	if res.EvictedValid && res.EvictedDirty {
		s.l2.Lookup(res.Evicted, true) // dirty writeback touches L2
	}
	if s.l2.Lookup(line, false) {
		return lat + s.cfg.L2Lat
	}
	lat += s.cfg.L2Lat
	s.l2.Fill(line, false, mem.FullVictim, nil)

	m := s.mcOf(addr)
	if m != c.id%s.cfg.NumMCs {
		lat += s.cfg.NUMAExtra
	}

	// Stale-load mode (§IV-G, Figure 14): without buffer snooping, a miss
	// that reaches memory while the word is still on the persist path
	// fetches stale data and must be refetched once the store lands.
	if c.path != nil && s.cfg.VictimPolicy == mem.StaleLoad && c.path.ContainsAddr(addr) {
		s.Stats.StaleLoads++
		c.l1.Misses++ // the refetch
		lat += s.cfg.DRAMLat + s.cfg.PMReadLat
	}

	if s.scheme.UseDRAMCache {
		if s.mcs[m].dram.Access(line) {
			return lat + s.cfg.DRAMLat
		}
		lat += s.cfg.DRAMLat
	}

	// §IV-H: the controller searches the WPQ in parallel with the PM
	// load; a hit postpones the load until the entry flushes.
	if s.scheme.UsePersistPath && s.mcs[m].q.Search(addr) {
		lat += s.cfg.PMReadLat
	}
	return lat + s.cfg.PMReadLat
}

// DebugState renders internal machine state for test diagnostics.
func (s *System) DebugState() string {
	out := ""
	for _, c := range s.cores {
		out += fmt.Sprintf("core%d halted=%v pc=%v region=%d sb=%d spinning=%v waitDrain=%v outstanding=%d",
			c.id, c.halted, c.pc, c.region, len(c.sb), c.spinning, c.waitDrain, c.outstanding)
		if c.path != nil {
			out += fmt.Sprintf(" feb=%d inflight=%d", c.path.FEBLen(), c.path.InFlight())
		}
		out += "\n"
	}
	for _, m := range s.mcs {
		out += m.q.String() + "\n"
	}
	out += fmt.Sprintf("net pending=%d regionCounter=%d\n", s.net.Pending(), s.regionCounter)
	return out
}
