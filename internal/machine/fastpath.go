package machine

import (
	"context"
	"fmt"

	"lightwsp/internal/wsperr"
)

// This file is the event/epoch hybrid stepper. The per-cycle loop in Tick
// remains the reference semantics: every component steps every cycle, in a
// fixed order. The fast path layers a scheduler on top of it: each
// component reports the next cycle at which it would do observable work
// (its "next interesting cycle"), the scheduler takes the minimum over the
// whole machine, and the span in between — provably idle for every
// component at once — is fast-forwarded in one jump. Contended windows,
// where some component acts every cycle, degenerate to plain Tick calls.
//
// The correctness contract, per component NextEvent hook:
//
//   - It may be EARLY: an extra tick lands on a cycle where the component
//     has nothing to do, which is exactly what the naive stepper does, so
//     it is always safe.
//   - It may NEVER be late: every cycle strictly inside (now, NextEvent)
//     must be an idle tick — no state change, no statistic, no probe
//     event — except for the cumulative idle effects (core stall counters,
//     persist-path bandwidth credit) that skipTo replays in bulk via the
//     components' SkipIdle hooks.
//
// Because the scheduler takes the global minimum, no component acts inside
// a skipped span, so shared state is frozen and each component's idle
// effects depend only on its own frozen state. Ticks still land exactly on
// every interesting cycle, which is what keeps probe event streams, stats,
// and crashfuzz PowerFail cut cycles (RunUntil clamps the jump target to
// its limit) byte-identical to the naive stepper.

// noEvent means "no scheduled activity": the component will only act in
// response to another component's event. All component NoEvent constants
// share this value.
const noEvent = ^uint64(0)

// FastForwardStats reports how many cycles the event/epoch scheduler
// skipped and in how many jumps. Deliberately not part of Stats: the fast
// path's observables must be identical to the naive stepper's, and Stats
// is compared field-for-field by the equivalence harness.
func (s *System) FastForwardStats() (skipped, jumps uint64) {
	return s.ffSkipped, s.ffJumps
}

// runLoop advances the machine until Done or the cycle limit, polling ctx
// every ctxCheckBatch cycles. It is the single run loop behind RunContext
// and RunUntilContext; the fast path lives only here. The limit is a hard
// landing point: a jump never overshoots it, so budget checks and
// crashfuzz power-cut cycles land exactly where the naive stepper stops.
//
// The loop looks for a jump only before its first tick and after a tick
// that issued no instruction. A core that issued usually issues again on
// the next cycle, so a scan there almost never ends in a jump; ticking the
// next cycle directly instead is at worst an early tick, which the
// contract allows.
func (s *System) runLoop(ctx context.Context, limit uint64) (bool, error) {
	poll := s.cycle // poll ctx before the first tick, so an expired deadline never runs
	idle := true    // the previous tick issued nothing (none yet in this call)
	for !s.Done() {
		if s.cycle >= limit {
			return false, nil
		}
		if s.cycle >= poll {
			if err := ctx.Err(); err != nil {
				return false, fmt.Errorf("machine: %w at cycle %d: %v", wsperr.ErrCanceled, s.cycle, err)
			}
			poll = s.cycle + ctxCheckBatch
		}
		if idle && !s.naiveStep {
			s.ffScans++
			if next := s.nextInteresting(s.cycle); next > s.cycle+1 {
				if next > limit {
					// Either a wedged machine (no events at all) or events
					// beyond the budget/cut cycle: land exactly on the limit.
					next = limit
				}
				if next > s.cycle+1 {
					s.skipTo(next)
				}
			}
		}
		issued := s.Stats.Instructions
		s.Tick()
		idle = s.Stats.Instructions == issued
	}
	return true, nil
}

// nextInteresting returns the earliest cycle strictly after now at which
// any component would do observable work — the next cycle Tick must
// actually run. noEvent means the machine is wedged (nothing will ever
// happen again without external intervention).
func (s *System) nextInteresting(now uint64) uint64 {
	next := uint64(noEvent)
	for _, c := range s.cores {
		if ev := c.nextEvent(now); ev < next {
			next = ev
		}
		if c.path != nil {
			if ev := c.path.NextEvent(now); ev < next {
				next = ev
			}
		}
	}
	if ev := s.net.NextArrival(); ev < next {
		next = ev
	}
	for _, m := range s.mcs {
		ev := m.q.NextEvent(now)
		if s.inj != nil && ev != noEvent && s.inj.MCStuck(ev, m.id) {
			// A stuck controller is not ticked at all (Tick skips it), and
			// nothing mutates its queue during the window, so its due work
			// runs at the first cycle after the window — exactly as naive.
			ev = s.inj.StuckUntil(ev, m.id)
		}
		if ev < next {
			next = ev
		}
	}
	if s.inj != nil {
		if ev := s.faultsNext(now); ev < next {
			next = ev
		}
	}
	if s.ffSkew != 0 && next != noEvent {
		// Test-only sabotage: deliberately violate the never-late contract
		// so the equivalence oracle can prove it has teeth.
		next += s.ffSkew
	}
	return next
}

// faultsNext schedules the time-driven fault-model bookkeeping tickFaults
// performs: the stuck window's edges (stuckSince recording at entry, parked
// release and stuckSince reset at exit) and the degrade deadline.
func (s *System) faultsNext(now uint64) uint64 {
	next := s.inj.NextEvent(now)
	pl := s.inj.Plan()
	if pl.StuckFor > 0 && pl.StuckMC >= 0 && pl.StuckMC < len(s.mcs) {
		id := pl.StuckMC
		if s.stuckSince[id] == 0 && s.inj.MCStuck(now+1, id) {
			return now + 1 // the next tick must record the stuck observation
		}
		if s.stuckSince[id] != 0 && !s.degradedMC[id] {
			ev := s.stuckSince[id] + s.cfg.degradeDeadline()
			if ev <= now {
				ev = now + 1
			}
			if ev < next {
				next = ev
			}
		}
	}
	return next
}

// skipTo fast-forwards the quiescent span up to (but not including) target:
// per-cycle effects that accrue even when idle — core stall statistics,
// persist-path bandwidth credit — are applied in bulk, and the clock jumps
// so the next Tick lands exactly on target.
func (s *System) skipTo(target uint64) {
	from := s.cycle + 1
	n := target - from // cycles skipped: from .. target-1
	if n == 0 {
		return
	}
	for _, c := range s.cores {
		c.skipIdle(from, n)
		if c.path != nil {
			c.path.SkipIdle(from, target-1)
		}
	}
	s.ffSkipped += n
	s.ffJumps++
	s.cycle = target - 1
}
