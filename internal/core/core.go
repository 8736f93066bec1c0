// Package core is the LightWSP runtime: it binds the compiler (region
// partitioning + checkpointing), the machine (persist path, gated WPQ,
// LRPO) and the recovery runtime into the paper's whole-system-persistence
// scheme, and provides the crash/recover orchestration the examples, tests
// and experiment harness drive.
package core

import (
	"context"
	"fmt"

	"lightwsp/internal/compiler"
	"lightwsp/internal/isa"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
	"lightwsp/internal/probe"
	"lightwsp/internal/recovery"
	"lightwsp/internal/wsperr"
)

// Scheme returns LightWSP's hardware behaviour: every store travels the
// 8-byte non-temporal persist path into a region-gated WPQ; cores never
// wait at region boundaries (lazy region-level persist ordering); the DRAM
// cache fronts PM.
func Scheme() machine.Scheme {
	return machine.Scheme{
		Name:           "lightwsp",
		Instrumented:   true,
		UsePersistPath: true,
		EntryBytes:     8,
		GatedWPQ:       true,
		UseDRAMCache:   true,
	}
}

// Runtime holds a program bound to a machine configuration and persistence
// scheme, ready to boot systems, inject failures and recover. For
// instrumented schemes Compiled carries the region compiler's output; for
// uninstrumented comparison schemes it is nil and the program runs as built.
type Runtime struct {
	// Compiled is the region compiler's result — nil when the scheme is
	// uninstrumented (baseline, ideal PSP), which also means no recovery
	// metadata exists and failure injection cannot recover.
	Compiled *compiler.Result
	Cfg      machine.Config
	Sch      machine.Scheme
	// Probe, when non-nil, is attached to every system this runtime boots
	// (clean boots and recoveries alike).
	Probe probe.Sink

	prog *isa.Program // the source program, pre-compilation
}

// NewRuntimeFor builds a runtime for a scheme: instrumented schemes compile
// prog first under ccfg.Resolve(mcfg.WPQEntries) (a zero store threshold is
// half the WPQ, §IV-A), uninstrumented ones run it as built. sink, when
// non-nil, is attached to every system the runtime boots.
func NewRuntimeFor(prog *isa.Program, ccfg compiler.Config, mcfg machine.Config, sch machine.Scheme, sink probe.Sink) (*Runtime, error) {
	rt := &Runtime{Cfg: mcfg, Sch: sch, Probe: sink, prog: prog}
	if !sch.Instrumented {
		return rt, nil
	}
	res, err := compiler.Compile(prog, ccfg.Resolve(mcfg.WPQEntries))
	if err != nil {
		return nil, err
	}
	rt.Compiled = res
	return rt, nil
}

// Prog returns the program a booted system will run: the compiler's output
// for instrumented schemes, the source program otherwise.
func (rt *Runtime) Prog() *isa.Program {
	if rt.Compiled != nil {
		return rt.Compiled.Prog
	}
	return rt.prog
}

// NewSystem boots a fresh machine running the program, with the runtime's
// probe sink (if any) attached.
func (rt *Runtime) NewSystem() (*machine.System, error) {
	sys, err := machine.NewSystem(rt.Prog(), rt.Cfg, rt.Sch)
	if err != nil {
		return nil, err
	}
	if rt.Probe != nil {
		sys.SetProbeSink(rt.Probe)
	}
	return sys, nil
}

// Recover builds a machine resuming from a crash image. Failures to rebuild
// a resumable machine wrap wsperr.ErrUnrecoverable.
func (rt *Runtime) Recover(pm *mem.Image, regionCounter uint64) (*machine.System, error) {
	if rt.Compiled == nil {
		return nil, fmt.Errorf("core: scheme %q has no recovery metadata: %w", rt.Sch.Name, wsperr.ErrUnrecoverable)
	}
	sys, err := recovery.Recover(rt.Compiled.Prog, rt.Cfg, rt.Sch, pm, rt.Compiled.Recipes, regionCounter)
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", err, wsperr.ErrUnrecoverable)
	}
	if rt.Probe != nil {
		sys.SetProbeSink(rt.Probe)
	}
	return sys, nil
}

// Run boots and runs a system to the end, returning it. Cancellation is
// honored at cycle-batch granularity; the returned error wraps
// wsperr.ErrCanceled, wsperr.ErrWPQOverflow or wsperr.ErrCyclesExceeded.
func (rt *Runtime) Run(ctx context.Context, maxCycles uint64) (*machine.System, error) {
	sys, err := rt.NewSystem()
	if err != nil {
		return nil, err
	}
	if err := sys.RunContext(ctx, maxCycles); err != nil {
		return nil, err
	}
	return sys, nil
}

// CrashResult reports one crash/recover round trip.
type CrashResult struct {
	// Failed is false if execution completed before the injection point
	// (no failure happened).
	Failed bool
	// Report is the §IV-F drain summary.
	Report machine.FailureReport
	// Recovered is the post-recovery system, run to completion; when no
	// failure happened it is the original system.
	Recovered *machine.System
	// Rollbacks counts crash/recover rounds executed (1 for a single
	// injection).
	Rollbacks int
}

// RunWithFailure runs the program, cuts power at failCycle, drains, recovers
// and runs the recovered system to completion. If the program finishes
// before failCycle, no failure is injected. Cancellation is honored at
// cycle-batch granularity in both the pre-failure and recovered runs.
func (rt *Runtime) RunWithFailure(ctx context.Context, failCycle, maxCycles uint64) (*CrashResult, error) {
	sys, err := rt.NewSystem()
	if err != nil {
		return nil, err
	}
	done, err := sys.RunUntilContext(ctx, failCycle)
	if err != nil {
		return nil, err
	}
	if done {
		return &CrashResult{Failed: false, Recovered: sys}, nil
	}
	rep := sys.PowerFail()
	rec, err := rt.Recover(sys.PM(), rep.RegionCounter)
	if err != nil {
		return nil, err
	}
	if err := rec.RunContext(ctx, maxCycles); err != nil {
		return nil, fmt.Errorf("core: recovered run: %w", err)
	}
	return &CrashResult{Failed: true, Report: rep, Recovered: rec, Rollbacks: 1}, nil
}

// RunWithRepeatedFailures injects a power failure every interval cycles —
// each recovery itself gets interrupted — until the program completes. This
// exercises recovery-of-recovery (nested failures), which LightWSP's
// region-level persistence supports for free: every recovery point is just
// a region boundary.
//
// The interval must exceed the time one region needs to execute and persist
// (store-buffer drain + persist-path transit + WPQ flush), or no run can
// ever persist a new boundary and the program cannot make progress; that
// situation is detected (the persisted image stops changing across rounds)
// and reported as an error wrapping wsperr.ErrUnrecoverable.
func (rt *Runtime) RunWithRepeatedFailures(ctx context.Context, interval, maxCycles uint64) (*CrashResult, error) {
	if interval == 0 {
		return nil, fmt.Errorf("core: zero failure interval")
	}
	sys, err := rt.NewSystem()
	if err != nil {
		return nil, err
	}
	res := &CrashResult{}
	stagnant := 0
	lastFingerprint := ""
	for round := 0; ; round++ {
		if round > int(maxCycles/interval)+1 {
			return nil, fmt.Errorf("core: no forward progress after %d failure rounds: %w", round, wsperr.ErrUnrecoverable)
		}
		done, err := sys.RunUntilContext(ctx, sys.Cycle()+interval)
		if err != nil {
			return nil, err
		}
		if done {
			res.Recovered = sys
			return res, nil
		}
		rep := sys.PowerFail()
		res.Failed = true
		res.Report = rep
		res.Rollbacks++
		if fp := recoveryFingerprint(sys, rt.Cfg.Threads); fp == lastFingerprint {
			stagnant++
			if stagnant >= 8 {
				return nil, fmt.Errorf("core: failure interval %d too short to persist a region (no progress over %d rounds): %w",
					interval, stagnant, wsperr.ErrUnrecoverable)
			}
		} else {
			lastFingerprint, stagnant = fp, 0
		}
		sys, err = rt.Recover(sys.PM(), rep.RegionCounter)
		if err != nil {
			return nil, err
		}
	}
}

// recoveryFingerprint summarizes the persisted resume state; if it stops
// changing across failure rounds, recovery is not advancing.
func recoveryFingerprint(sys *machine.System, threads int) string {
	fp := fmt.Sprintf("%d", sys.PM().Len())
	for t := 0; t < threads; t++ {
		fp += fmt.Sprintf(":%x", sys.PM().Read(mem.CkptAddr(t, mem.CkptSlotPC)))
	}
	return fp
}
