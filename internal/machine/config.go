// Package machine is the cycle-stepped architectural simulator: out-of-order
// -approximating cores (in-order issue, non-blocking loads, store buffer),
// an L1/L2/DRAM-cache/PM hierarchy with the Table I configuration, per-core
// persist paths and two memory controllers with write pending queues. The
// persistence scheme — LightWSP, Capri, PPA, cWSP, an ideal PSP, or the
// non-persistent baseline — is a parameter (Scheme), so every evaluation in
// the paper runs the same machine with different persistence plumbing.
//
// The machine is deterministic: all state advances on a virtual cycle
// counter, cores tick in index order, and no wall-clock time or map
// iteration order reaches simulation results. This matters in Go, where GC
// pauses would otherwise contaminate an instrumentation-based model.
package machine

import (
	"lightwsp/internal/mem"
)

// Config mirrors Table I of the paper, converted to cycles at 2 GHz
// (1 cycle = 0.5 ns).
type Config struct {
	// Cores is the number of cores (one hardware thread each). It bounds
	// Threads; the machine builds only the Threads cores that run.
	Cores int
	// IssueWidth is instructions issued per cycle (4-wide OoO).
	IssueWidth int
	// SBEntries is the store-buffer capacity (Table I SQ: 56).
	SBEntries int

	// L1Size/L1Ways/L1Lat describe the per-core L1 data cache
	// (64 KB, 8-way, 4 cycles).
	L1Size, L1Ways int
	L1Lat          uint64
	// L2Size/L2Ways/L2Lat describe the shared L2 (16 MB, 16-way, 44c).
	L2Size, L2Ways int
	L2Lat          uint64

	// DRAMCacheSize is the per-system DRAM cache capacity (4 GB),
	// split across controllers; DRAMLat its access latency (~30 ns).
	DRAMCacheSize uint64
	DRAMLat       uint64

	// PMReadLat and PMWriteLat are Optane latencies (175 ns / 90 ns).
	PMReadLat, PMWriteLat uint64
	// PMWriteInterval is the cycles between successive 8-byte WPQ→PM
	// writes per controller: the PM write-bandwidth model. The default
	// of 1 (16 GB/s per controller) reflects the write combining a WPQ
	// performs when flushing adjacent 8-byte entries of a region.
	PMWriteInterval uint64

	// NumMCs is the number of memory controllers (2).
	NumMCs int
	// WPQEntries is the write pending queue capacity per MC (64 × 8 B).
	WPQEntries int
	// FEBEntries is the front-end buffer capacity per core (64).
	FEBEntries int

	// PersistBytesPerCredit and PersistCreditCycles set the per-core
	// persist-path bandwidth: PersistBytesPerCredit bytes of credit every
	// PersistCreditCycles cycles. (2, 1) models the paper's 4 GB/s at
	// 2 GHz; (1, 2) models 1 GB/s (Figure 15's sweep).
	PersistBytesPerCredit int
	PersistCreditCycles   uint64
	// PersistLatNear/PersistLatFar are the core→MC transit latencies in
	// cycles; their difference is the NUMA skew of §II-B. The paper's
	// worst case is 20 ns = 40 cycles.
	PersistLatNear, PersistLatFar uint64
	// ChannelCap bounds in-flight entries per (core, MC) channel.
	ChannelCap int

	// NoCLat is the boundary/ACK message latency between MCs.
	NoCLat uint64

	// RetryTimeout is the cycles a controller waits for missing bdry-ACKs
	// before retransmitting a boundary replay (reliable delivery under an
	// attached fault injector; successive rounds back off exponentially).
	// 0 means the default.
	RetryTimeout uint64
	// RetryBudget is the retransmission rounds before the silent peer is
	// declared degraded; replaying continues at maximum backoff after.
	// 0 means the default.
	RetryBudget int
	// DegradeDeadline is the cycles a controller may stay stuck
	// (fault-injected) before the machine declares it degraded and it
	// falls back to undo-logged eager persistence. 0 means the default.
	DegradeDeadline uint64
	// BrokenDupAcks (test-only) disables idempotent duplicate-ACK
	// handling in every WPQ, re-creating the pre-reliable-delivery
	// counting bug so the crash-fuzzing campaign can prove it catches it.
	BrokenDupAcks bool

	// NUMAExtra is the extra load latency for accessing the far
	// controller.
	NUMAExtra uint64

	// OOOWindow is the load latency (cycles) the out-of-order window can
	// hide behind independent work: the scoreboard charges a consumer
	// max(1, latency − OOOWindow). Table I's 224-entry ROB hides on the
	// order of an L2 hit.
	OOOWindow uint64

	// VictimPolicy selects the L1 eviction policy under buffer snooping
	// (§IV-G, Figure 13); StaleLoad disables snooping (Figure 14).
	VictimPolicy mem.VictimPolicy

	// Threads is the number of software threads; each runs on its own
	// core, so Threads ≤ Cores.
	Threads int
}

// retryTimeout resolves the reliable-delivery timeout (default 80 cycles:
// several NoC round trips, so a fault-free exchange never trips it).
func (c Config) retryTimeout() uint64 {
	if c.RetryTimeout == 0 {
		return 80
	}
	return c.RetryTimeout
}

// retryBudget resolves the retransmission budget before degradation.
func (c Config) retryBudget() int {
	if c.RetryBudget == 0 {
		return 6
	}
	return c.RetryBudget
}

// degradeDeadline resolves the stuck-controller degradation deadline.
func (c Config) degradeDeadline() uint64 {
	if c.DegradeDeadline == 0 {
		return 1200
	}
	return c.DegradeDeadline
}

// DefaultConfig returns the Table I system.
func DefaultConfig() Config {
	return Config{
		Cores:      8,
		IssueWidth: 4,
		SBEntries:  56,

		L1Size: 64 << 10, L1Ways: 8, L1Lat: 4,
		L2Size: 16 << 20, L2Ways: 16, L2Lat: 44,

		DRAMCacheSize: 4 << 30, DRAMLat: 60,
		PMReadLat: 350, PMWriteLat: 180,
		PMWriteInterval: 1,

		NumMCs:     2,
		WPQEntries: 64,
		FEBEntries: 64,

		PersistBytesPerCredit: 2,
		PersistCreditCycles:   1,
		PersistLatNear:        20,
		PersistLatFar:         40,
		ChannelCap:            16,

		NoCLat:    10,
		NUMAExtra: 10,
		OOOWindow: 40,

		RetryTimeout:    80,
		RetryBudget:     6,
		DegradeDeadline: 1200,

		VictimPolicy: mem.FullVictim,
		Threads:      1,
	}
}

// Scheme describes a persistence mechanism's hardware behaviour. Predefined
// schemes live in internal/core (LightWSP) and internal/baseline (Capri,
// PPA, cWSP, PSP-Ideal, the naive sfence variant, and the non-persistent
// baseline).
type Scheme struct {
	// Name identifies the scheme in reports.
	Name string
	// Instrumented means the program carries compiler-inserted region
	// boundaries and checkpoint stores and the machine maintains region
	// IDs.
	Instrumented bool
	// StripCheckpoints removes CkptStore instructions at load time and
	// shrinks boundaries to a single PC store (cWSP: idempotent regions
	// need no register checkpoints).
	StripCheckpoints bool
	// UsePersistPath routes every store through the non-temporal persist
	// path into the WPQ.
	UsePersistPath bool
	// EntryBytes is the persist-path traffic per store: 8 for LightWSP's
	// word-granular path, 64 for Capri's cacheline flushes.
	EntryBytes int
	// GatedWPQ enables LightWSP's LRPO protocol (region-gated flushing);
	// otherwise the WPQ flushes FIFO.
	GatedWPQ bool
	// StallAtBoundary stalls the core at each region boundary until all
	// its outstanding persists have reached PM (Capri's stop-the-path
	// multi-MC ordering; the naive-sfence ablation).
	StallAtBoundary bool
	// HWRegionStores, when non-zero, ends a hardware-delineated region
	// every N stores and stalls until outstanding persists drain — PPA's
	// PRF-pressure-driven implicit regions with eager write-back.
	HWRegionStores int
	// PMWriteExtra is added to every WPQ→PM write: cWSP's in-line undo
	// logging cost.
	PMWriteExtra uint64
	// UseDRAMCache enables the DRAM cache (LLC) in front of PM. Partial-
	// system persistence cannot have it (§I); whole-system schemes can.
	UseDRAMCache bool
}
