package machine

import "fmt"

// Stats aggregates one run's measurements. Counters are cumulative across
// all cores unless noted.
type Stats struct {
	Cycles uint64

	// Instruction mix.
	Instructions uint64 // all issued instructions
	Boundaries   uint64 // Boundary instructions issued
	Checkpoints  uint64 // CkptStore instructions issued
	Stores       uint64 // persist-path store operations (incl. call pushes)
	Loads        uint64
	Atomics      uint64
	IOOps        uint64 // irrevocable Io operations performed

	// Stall cycles by cause (per-core cycles summed).
	StallOperand  uint64 // waiting for a register (load latency)
	StallSBFull   uint64 // store buffer full
	StallFEBFull  uint64 // persist path back pressure (LightWSP's Twait)
	StallDrain    uint64 // waiting at a boundary for persists (PPA/Capri Twait)
	StallLockSpin uint64 // spinning on a lock
	StallEviction uint64 // zero-victim snoop-conflict eviction delays

	// Persistence activity.
	PersistEntries   uint64 // entries that entered the persist path
	PersistFlushed   uint64 // entries written to PM
	PersistResidency uint64 // Σ (flush cycle − creation cycle): Tp of Eq. (1)

	// WPQ behaviour.
	WPQCAMHits      uint64
	WPQCAMSearches  uint64
	WPQDeadlocks    uint64
	WPQUndoWrites   uint64
	WPQFullRejects  uint64
	WPQMaxOccupancy int

	// Persist-fabric robustness (all zero without a fault injector).
	WPQRetries       uint64 // boundary replays retransmitted
	WPQDupSuppressed uint64 // duplicate ACKs absorbed idempotently
	MCDegradations   uint64 // controllers declared degraded
	FaultDrops       uint64 // messages the injector dropped
	FaultDups        uint64 // messages the injector duplicated
	FaultDelays      uint64 // messages the injector delayed
	FaultReorders    uint64 // messages the injector reordered

	// Cache behaviour.
	L1Hits, L1Misses     uint64
	L2Hits, L2Misses     uint64
	DRAMHits, DRAMMisses uint64
	SnoopConflicts       uint64 // buffer-snooping CAM hits (Table II)
	SnoopSearches        uint64
	StaleLoads           uint64 // stale-load refetches (StaleLoad mode only)

	// Region shape (dynamic).
	RegionsClosed      uint64
	InstrInRegions     uint64 // instructions attributed to closed regions
	StoresInRegions    uint64 // stores attributed to closed regions
	MaxDynRegionStores int    // largest per-region dynamic store count seen
}

// Twait returns the persistence-attributable core wait time of Eq. (1):
// back-pressure stalls for LightWSP, boundary drain stalls for PPA and
// Capri.
func (s *Stats) Twait() uint64 {
	return s.StallFEBFull + s.StallDrain
}

// PersistenceEfficiency computes Eq. (1): (Tp − Twait) / Tp × 100. With no
// persistence activity it returns 100.
func (s *Stats) PersistenceEfficiency() float64 {
	if s.PersistResidency == 0 {
		return 100
	}
	tw := s.Twait()
	if tw >= s.PersistResidency {
		return 0
	}
	return float64(s.PersistResidency-tw) / float64(s.PersistResidency) * 100
}

// L1MissRate returns the L1 miss ratio in percent.
func (s *Stats) L1MissRate() float64 {
	t := s.L1Hits + s.L1Misses
	if t == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(t) * 100
}

// InstrPerRegion returns the average dynamic instructions per region.
func (s *Stats) InstrPerRegion() float64 {
	if s.RegionsClosed == 0 {
		return 0
	}
	return float64(s.InstrInRegions) / float64(s.RegionsClosed)
}

// StoresPerRegion returns the average dynamic stores per region.
func (s *Stats) StoresPerRegion() float64 {
	if s.RegionsClosed == 0 {
		return 0
	}
	return float64(s.StoresInRegions) / float64(s.RegionsClosed)
}

// Summary renders the run's headline numbers for human consumption.
func (s *Stats) Summary() string {
	ipc := 0.0
	if s.Cycles > 0 {
		ipc = float64(s.Instructions) / float64(s.Cycles)
	}
	return fmt.Sprintf(
		"cycles=%d insts=%d (ipc %.2f) stores=%d loads=%d regions=%d "+
			"eff=%.2f%% l1miss=%.2f%% stalls[op=%d sb=%d feb=%d drain=%d spin=%d] "+
			"wpq[deadlocks=%d undo=%d maxocc=%d]",
		s.Cycles, s.Instructions, ipc, s.Stores, s.Loads, s.RegionsClosed,
		s.PersistenceEfficiency(), s.L1MissRate(),
		s.StallOperand, s.StallSBFull, s.StallFEBFull, s.StallDrain, s.StallLockSpin,
		s.WPQDeadlocks, s.WPQUndoWrites, s.WPQMaxOccupancy)
}
