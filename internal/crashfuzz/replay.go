package crashfuzz

import (
	"fmt"

	"lightwsp/internal/core"
	"lightwsp/internal/faults"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
)

// Schedule is one failure schedule: a sequence of power-cut cycles. Cut i
// fires when the machine of segment i — the initial run for i = 0, the i-th
// recovered machine afterwards — reaches that cycle of its own counter
// (recovered machines restart at cycle 0). A cut of 0 therefore cuts power
// the instant the previous recovery hands off, before a single cycle
// executes: the model's tightest "failure during recovery itself".
//
// A cut whose cycle lies beyond the segment's completion never fires (the
// run finishes first); the replay then skips the remaining cuts.
type Schedule []uint64

// String renders the schedule compactly for logs and error messages.
func (s Schedule) String() string {
	return fmt.Sprintf("%v", []uint64(s))
}

// clone returns an independent copy.
func (s Schedule) clone() Schedule { return append(Schedule{}, s...) }

// ReplayResult is one schedule's outcome.
type ReplayResult struct {
	// Sys is the final machine, run to completion after the last cut.
	Sys *machine.System
	// Fired counts the cuts that actually happened (a schedule can outlive
	// its program).
	Fired int
	// Discarded totals the WPQ entries of unpersisted regions dropped
	// across all drains.
	Discarded int
}

// Replay executes one failure schedule against a compiled runtime: run to
// each cut cycle, cut power (§IV-F drain), optionally corrupt the crash
// image (test-only broken-recovery hook), recover, and continue; after the
// last cut the machine runs to completion. An enabled fault plan attaches a
// fresh injector to every segment — the initial machine and each recovered
// one — so each segment's fault pattern depends only on the plan and the
// segment's own cycle counter, never on earlier cuts; the oracle stays
// fault-free. Replays are deterministic: the same runtime, schedule and plan
// always produce the same final machine.
//
// Replay is the from-cycle-0 prefix of the first segment followed by resume,
// the same tail a campaign's workers run on the walker's crash images. It is
// the path for shrinking and for re-executing repro files.
func Replay(rt *core.Runtime, sched Schedule, maxCycles uint64, corrupt func(*mem.Image), plan faults.Plan) (*ReplayResult, error) {
	sys, err := rt.NewSystem()
	if err != nil {
		return nil, err
	}
	sys.SetFaultInjector(faults.New(plan))
	if len(sched) == 0 || sys.RunUntil(sched[0]) {
		return complete(sys, sched, maxCycles, &ReplayResult{})
	}
	rep := sys.PowerFail()
	return resume(rt, sched, sys.PM(), rep, maxCycles, corrupt, plan)
}

// resume is a replay's tail after its first cut: given that cut's crash
// image pm (which it takes over and may mutate) and drain report, it
// corrupts the image if asked, recovers, applies the schedule's later cuts
// the same way, and runs the last segment to completion.
func resume(rt *core.Runtime, sched Schedule, pm *mem.Image, rep machine.FailureReport, maxCycles uint64, corrupt func(*mem.Image), plan faults.Plan) (*ReplayResult, error) {
	res := &ReplayResult{}
	for k := 0; ; k++ {
		if corrupt != nil {
			corrupt(pm)
		}
		sys, err := rt.Recover(pm, rep.RegionCounter)
		if err != nil {
			return nil, fmt.Errorf("crashfuzz: recover after cut at cycle %d: %w", sched[k], err)
		}
		sys.SetFaultInjector(faults.New(plan))
		res.Fired++
		res.Discarded += rep.Discarded
		if k+1 == len(sched) || sys.RunUntil(sched[k+1]) {
			return complete(sys, sched, maxCycles, res)
		}
		rep = sys.PowerFail()
		pm = sys.PM()
	}
}

// complete runs a replay's last segment to completion; a cut whose cycle
// lay beyond completion skipped the rest of the schedule.
func complete(sys *machine.System, sched Schedule, maxCycles uint64, res *ReplayResult) (*ReplayResult, error) {
	if !sys.Run(maxCycles) {
		return nil, fmt.Errorf("crashfuzz: replay %v exceeded %d cycles", sched, maxCycles)
	}
	res.Sys = sys
	return res, nil
}
