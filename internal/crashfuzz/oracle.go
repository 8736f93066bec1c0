package crashfuzz

import (
	"context"
	"fmt"

	"lightwsp/internal/core"
	"lightwsp/internal/mem"
	"lightwsp/internal/probe"
	"lightwsp/internal/recovery"
)

// oracle is the failure-free reference a campaign diffs every injected run
// against: the final persisted image of one crash-free execution, its cycle
// count (the space of legal injection points), and a content hash that
// identifies the oracle across processes and parallel campaigns.
type oracle struct {
	pm     *mem.Image
	cycles uint64
	hash   string
}

// interestCollector watches the oracle run's probe stream and records the
// cycles at which persistence-machinery events fire — boundary broadcasts,
// WPQ flushes and overflow-escape transitions, undo-log writes, FEB
// back-pressure burst ends. Those are the cycles where the most protocol
// state is in flight, so a sampled campaign seeds its injection set with
// them (each ±1) before drawing random cycles.
type interestCollector struct {
	max    int
	seen   map[uint64]struct{}
	cycles []uint64
	common int // running count of high-frequency events, for striding
}

// commonStride thins the high-frequency kinds (every store flushes): only
// every commonStride-th such event contributes a cycle, so rare events —
// overflow escapes, undo writes, stall bursts — keep most of the budget.
const commonStride = 17

func newInterestCollector(max int) *interestCollector {
	return &interestCollector{max: max, seen: map[uint64]struct{}{}}
}

func (ic *interestCollector) sink() probe.Sink {
	return probe.SinkFunc(func(e probe.Event) {
		switch e.Kind {
		case probe.WPQOverflowEnter, probe.WPQOverflowExit, probe.WPQUndo,
			probe.FEBStallStop:
			// Rare: always interesting.
		case probe.BoundaryBroadcast, probe.WPQFlush:
			ic.common++
			if ic.common%commonStride != 0 {
				return
			}
		default:
			return
		}
		ic.record(e.Cycle)
	})
}

func (ic *interestCollector) record(cycle uint64) {
	if len(ic.seen) >= ic.max {
		return
	}
	if _, ok := ic.seen[cycle]; ok {
		return
	}
	ic.seen[cycle] = struct{}{}
	ic.cycles = append(ic.cycles, cycle)
}

// buildOracle runs the workload once crash-free, checks the completed run's
// own persistence invariant (PM ≡ architectural state on program data — if
// that fails, the harness has found a bug before injecting anything), and
// returns the oracle plus the interesting cycles observed. The run stops at
// its next cycle batch once ctx ends, with an error wrapping
// wsperr.ErrCanceled.
func buildOracle(ctx context.Context, rt *core.Runtime, maxCycles uint64, maxInteresting int) (*oracle, []uint64, error) {
	sys, err := rt.NewSystem()
	if err != nil {
		return nil, nil, err
	}
	ic := newInterestCollector(maxInteresting)
	sys.SetProbeSink(ic.sink())
	if err := sys.RunContext(ctx, maxCycles); err != nil {
		return nil, nil, fmt.Errorf("crashfuzz: oracle run: %w", err)
	}
	if err := recovery.VerifyPMMatchesArch(sys.PM(), sys.Arch()); err != nil {
		return nil, nil, fmt.Errorf("crashfuzz: failure-free run violates persistence invariant: %w", err)
	}
	return &oracle{
		pm:     sys.PM(),
		cycles: sys.Stats.Cycles,
		hash:   fmt.Sprintf("%016x", sys.PM().Hash()),
	}, ic.cycles, nil
}
