package core

import (
	"context"
	"errors"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/isa"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
	"lightwsp/internal/probe"
	"lightwsp/internal/recovery"
	"lightwsp/internal/wsperr"
)

const maxCycles = 20_000_000

func maxUint64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func smallCfg() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Threads = 1
	return cfg
}

// mixProg writes a deterministic pattern: a loop of stores, a call, a
// branch diamond — enough region structure to make failure points
// interesting.
func mixProg() *isa.Program {
	b := isa.NewBuilder("mix")
	b.Func("main")
	b.MovImm(1, 0x10000) // base
	b.MovImm(2, 0)       // i
	b.MovImm(3, 64)      // n
	loop := b.NewBlock()
	b.MulImm(4, 2, 3)
	b.AddImm(4, 4, 7)
	b.Store(1, 0, 4)
	b.AddImm(1, 1, 8)
	b.AddImm(2, 2, 1)
	b.CmpLT(5, 2, 3)
	b.Branch(5, loop, loop+1)
	after := b.NewBlock()
	b.Mov(isa.ArgReg(0), 2)
	b.Call(1, 1)
	b.MovImm(6, 0x20000)
	b.Store(6, 0, isa.RetReg)
	// diamond on the call result
	b.MovImm(7, 100)
	b.CmpLT(8, isa.RetReg, 7)
	b.Branch(8, after+1, after+2)
	b.NewBlock()
	b.MovImm(9, 111)
	b.Store(6, 8, 9)
	b.Jump(after + 3)
	b.NewBlock()
	b.MovImm(9, 222)
	b.Store(6, 8, 9)
	b.Jump(after + 3)
	b.NewBlock()
	b.Halt()
	b.SwitchTo(0)
	b.Jump(loop)
	b.Func("triple")
	b.MulImm(0, isa.ArgReg(0), 3)
	b.Ret(0)
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func newRT(t *testing.T, p *isa.Program, cfg machine.Config) *Runtime {
	t.Helper()
	rt, err := NewRuntime(p, compiler.Config{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestLightWSPCompletesAndPersistsEverything(t *testing.T) {
	rt := newRT(t, mixProg(), smallCfg())
	sys, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	// Whole-system persistence: after the final region commits, PM holds
	// the complete architectural data image.
	if !sys.PM().EqualRange(sys.Arch(), 0, recovery.UserRangeEnd) {
		t.Fatalf("PM != arch after completion: %v", sys.PM().Diff(sys.Arch(), 5))
	}
	if got := sys.PM().Read(0x10000); got != 7 {
		t.Fatalf("first loop store = %d", got)
	}
	if got := sys.PM().Read(0x20000); got != 64*3 {
		t.Fatalf("call result = %d, want %d", got, 64*3)
	}
	if got := sys.PM().Read(0x20008); got != 222 {
		t.Fatalf("diamond result = %d, want 222", got)
	}
	if sys.Stats.RegionsClosed == 0 || sys.Stats.Boundaries == 0 {
		t.Fatalf("no regions closed: %+v", sys.Stats)
	}
}

func TestCrashConsistencySweep(t *testing.T) {
	// Inject a power failure at a spread of cycles across the whole run
	// and verify the recovered final image matches the failure-free one.
	rt := newRT(t, mixProg(), smallCfg())
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	total := clean.Stats.Cycles
	if total < 100 {
		t.Fatalf("run too short to sweep: %d cycles", total)
	}
	step := total / 40
	if step == 0 {
		step = 1
	}
	for fail := uint64(1); fail < total+step; fail += step {
		res, err := rt.RunWithFailure(context.Background(), fail, maxCycles)
		if err != nil {
			t.Fatalf("failure at %d: %v", fail, err)
		}
		if err := recovery.VerifyEquivalence(res.Recovered.PM(), clean.PM()); err != nil {
			t.Fatalf("failure at cycle %d: %v", fail, err)
		}
	}
}

func TestRepeatedFailuresMakeProgress(t *testing.T) {
	rt := newRT(t, mixProg(), smallCfg())
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.RunWithRepeatedFailures(context.Background(), maxUint64(clean.Stats.Cycles/5, 350), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.Rollbacks < 2 {
		t.Fatalf("expected multiple failure rounds, got %d", res.Rollbacks)
	}
	if err := recovery.VerifyEquivalence(res.Recovered.PM(), clean.PM()); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryUsesRecipes(t *testing.T) {
	// A constant live-out gets pruned; recovery must reconstruct it.
	b := isa.NewBuilder("recipes")
	b.Func("main")
	b.MovImm(5, 12345) // constant, live across many boundaries
	b.MovImm(1, 0x30000)
	for i := 0; i < 40; i++ {
		b.Store(1, int64(8*i), 5)
	}
	b.Store(1, 400, 5)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, p, smallCfg())
	if rt.Compiled.Stats.PrunedCheckpoints == 0 {
		t.Skip("no pruning happened for this shape")
	}
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	total := clean.Stats.Cycles
	for _, frac := range []uint64{4, 3, 2} {
		res, err := rt.RunWithFailure(context.Background(), total/frac, maxCycles)
		if err != nil {
			t.Fatal(err)
		}
		if err := recovery.VerifyEquivalence(res.Recovered.PM(), clean.PM()); err != nil {
			t.Fatalf("failure at 1/%d: %v", frac, err)
		}
	}
}

func TestNoFailureBeforeCompletionIsIdentity(t *testing.T) {
	rt := newRT(t, mixProg(), smallCfg())
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.RunWithFailure(context.Background(), clean.Stats.Cycles+1000, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("failure injected after completion")
	}
}

func TestMultiThreadLockedCounterCrashConsistency(t *testing.T) {
	// Threads increment a shared counter under a lock. After a crash and
	// recovery the final counter must be exactly threads*iters: no lost
	// or doubled increments (DESIGN.md invariants 1 and 6).
	b := isa.NewBuilder("mtlock")
	b.Func("main")
	b.MovImm(3, 0x40000) // lock
	b.MovImm(4, 0x40008) // counter
	b.MovImm(7, 0)
	b.MovImm(8, 6) // iterations
	loop := b.NewBlock()
	b.LockAcquire(3, 0)
	b.Load(5, 4, 0)
	b.AddImm(5, 5, 1)
	b.Store(4, 0, 5)
	b.LockRelease(3, 0)
	b.AddImm(7, 7, 1)
	b.CmpLT(9, 7, 8)
	b.Branch(9, loop, loop+1)
	b.NewBlock()
	b.Halt()
	b.SwitchTo(0)
	b.Jump(loop)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = 4
	rt := newRT(t, p, cfg)
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.PM().Read(0x40008); got != 24 {
		t.Fatalf("failure-free counter = %d, want 24", got)
	}
	total := clean.Stats.Cycles
	step := total / 12
	if step == 0 {
		step = 1
	}
	for fail := step; fail < total; fail += step {
		res, err := rt.RunWithFailure(context.Background(), fail, maxCycles)
		if err != nil {
			t.Fatalf("failure at %d: %v", fail, err)
		}
		if got := res.Recovered.PM().Read(0x40008); got != 24 {
			t.Fatalf("failure at %d: counter = %d, want 24", fail, got)
		}
	}
}

func TestLRPOOutperformsNaiveSfence(t *testing.T) {
	// The motivation for LRPO (§III-B): stalling at every boundary is
	// much slower than offloading ordering to the MCs.
	p := mixProg()
	rt := newRT(t, p, smallCfg())
	light, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := machine.NewSystem(rt.Compiled.Prog, rt.Cfg, machine.Scheme{
		Name: "naive", Instrumented: true, UsePersistPath: true,
		EntryBytes: 8, StallAtBoundary: true, UseDRAMCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Run(maxCycles) {
		t.Fatal("naive run did not complete")
	}
	if naive.Stats.Cycles <= light.Stats.Cycles {
		t.Fatalf("naive sfence (%d cycles) not slower than LRPO (%d)",
			naive.Stats.Cycles, light.Stats.Cycles)
	}
	if naive.Stats.StallDrain == 0 {
		t.Fatal("naive sfence recorded no drain stalls")
	}
}

func TestRegionStatsTracked(t *testing.T) {
	rt := newRT(t, mixProg(), smallCfg())
	sys, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats.InstrPerRegion() <= 0 || sys.Stats.StoresPerRegion() <= 0 {
		t.Fatalf("region stats empty: %+v", sys.Stats)
	}
	if sys.Stats.MaxDynRegionStores > rt.Compiled.Config.StoreThreshold {
		t.Fatalf("dynamic region stores %d exceed threshold %d",
			sys.Stats.MaxDynRegionStores, rt.Compiled.Config.StoreThreshold)
	}
}

func TestPersistenceEfficiencyNearPerfect(t *testing.T) {
	rt := newRT(t, mixProg(), smallCfg())
	sys, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if eff := sys.Stats.PersistenceEfficiency(); eff < 90 {
		t.Fatalf("LightWSP efficiency = %.1f%%, want ≥ 90%%", eff)
	}
}

func TestIoEndToEndWithRecipes(t *testing.T) {
	// The full stack: Io regions, constant pruning with recipes, crash,
	// recovery-runtime restoration, restartable re-emission.
	b := isa.NewBuilder("io")
	b.Func("main")
	b.MovImm(1, 0x6000)
	b.MovImm(2, 0)
	b.MovImm(3, 9) // global constant: pruned, recipe-reconstructed
	loop := b.NewBlock()
	b.AddImm(2, 2, 1)
	b.Store(1, 0, 2)
	b.AddImm(1, 1, 8)
	b.Io(2)
	b.CmpLT(4, 2, 3)
	b.Branch(4, loop, loop+1)
	b.NewBlock()
	b.Halt()
	b.SwitchTo(0)
	b.Jump(loop)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, p, smallCfg())
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Output) != 9 {
		t.Fatalf("clean output = %v", clean.Output)
	}
	total := clean.Stats.Cycles
	for frac := uint64(2); frac <= 6; frac++ {
		sys, err := rt.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		if sys.RunUntil(total / frac) {
			continue
		}
		rep := sys.PowerFail()
		rec, err := rt.Recover(sys.PM(), rep.RegionCounter)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Run(maxCycles) {
			t.Fatal("recovered run did not complete")
		}
		if err := recovery.VerifyEquivalence(rec.PM(), clean.PM()); err != nil {
			t.Fatalf("frac %d: %v", frac, err)
		}
		// Combined output: every value 1..9 in order, duplicates allowed
		// only as immediate re-emissions at the crash point.
		combined := append(append([]uint64{}, sys.Output...), rec.Output...)
		want := uint64(1)
		for _, v := range combined {
			switch {
			case v == want:
				want++
			case v == want-1: // restarted Io
			default:
				t.Fatalf("frac %d: broken output %v", frac, combined)
			}
		}
		if want != 10 {
			t.Fatalf("frac %d: missing emissions: %v", frac, combined)
		}
	}
}

func TestOverflowEscapeEndToEnd(t *testing.T) {
	// A deliberately tiny WPQ under 4 threads forces the §IV-D overflow
	// escape (undo-logged flushes) during normal execution; failures
	// injected across the run must still recover exactly, exercising the
	// undo-log rollback path end to end.
	prog, err := func() (*isa.Program, error) {
		bb := isa.NewBuilder("overflow")
		bb.Func("main")
		bb.Mov(30, isa.ArgReg(0)) // tid
		bb.MovImm(2, 0x1000)
		bb.Mul(10, 30, 2)
		bb.MovImm(11, 0x50000)
		bb.Add(10, 10, 11) // base
		bb.MovImm(12, 0)   // i
		bb.MovImm(13, 40)
		loop := bb.NewBlock()
		bb.Store(10, 0, 12)
		bb.AddImm(10, 10, 8)
		bb.AddImm(12, 12, 1)
		bb.CmpLT(14, 12, 13)
		bb.Branch(14, loop, loop+1)
		bb.NewBlock()
		bb.Halt()
		bb.SwitchTo(0)
		bb.Jump(loop)
		return bb.Build()
	}()
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = 4
	cfg.WPQEntries = 12
	cfg.FEBEntries = 12
	rt, err := NewRuntime(prog, compiler.Config{StoreThreshold: 6, MaxUnroll: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.WPQDeadlocks == 0 {
		t.Log("note: no overflow events in the clean run; escape path not stressed")
	}
	total := clean.Stats.Cycles
	step := total / 10
	if step == 0 {
		step = 1
	}
	for fail := step; fail < total; fail += step {
		res, err := rt.RunWithFailure(context.Background(), fail, maxCycles)
		if err != nil {
			t.Fatalf("failure at %d: %v", fail, err)
		}
		if err := recovery.VerifyEquivalence(res.Recovered.PM(), clean.PM()); err != nil {
			t.Fatalf("failure at %d (deadlocks %d, undo %d): %v",
				fail, clean.Stats.WPQDeadlocks, clean.Stats.WPQUndoWrites, err)
		}
	}
	t.Logf("clean-run overflow events: %d, undo writes: %d",
		clean.Stats.WPQDeadlocks, clean.Stats.WPQUndoWrites)
}

func TestConstPrunedAcrossCallResume(t *testing.T) {
	// Regression for the soundness hole the kvstore example exposed: a
	// caller's recipe-pruned constant (the loop limit) must survive a
	// crash whose resume point lies INSIDE the callee — the recipe has
	// to exist at callee region ends too, because the register's
	// checkpoint slot is never written.
	b := isa.NewBuilder("xcall")
	b.Func("main")
	b.MovImm(11, 12) // loop limit: single-def constant, live across calls
	b.MovImm(10, 0)  // i
	loop := b.NewBlock()
	b.Mov(isa.ArgReg(0), 10)
	b.Call(1, 1) // leaf writes several slots derived from i
	b.AddImm(10, 10, 1)
	b.CmpLT(12, 10, 11)
	b.Branch(12, loop, loop+1)
	b.NewBlock()
	b.Halt()
	b.SwitchTo(0)
	b.Jump(loop)
	b.Func("leaf")
	b.MovImm(3, 0x60000)
	b.MulImm(4, 1, 64)
	b.Add(3, 3, 4)
	for j := 0; j < 5; j++ {
		b.AddImm(5, 1, int64(100*j))
		b.Store(3, int64(8*j), 5)
	}
	b.MovImm(0, 0)
	b.Ret(0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, p, smallCfg())
	// The limit must have been recipe-pruned for this regression to bite.
	pruned := rt.Compiled.Stats.ConstRecipes > 0
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	total := clean.Stats.Cycles
	for fail := uint64(1); fail < total; fail += total/29 + 1 {
		res, err := rt.RunWithFailure(context.Background(), fail, maxCycles)
		if err != nil {
			t.Fatalf("failure at %d: %v", fail, err)
		}
		if err := recovery.VerifyEquivalence(res.Recovered.PM(), clean.PM()); err != nil {
			t.Fatalf("failure at %d (pruned=%v): %v", fail, pruned, err)
		}
	}
	if !pruned {
		t.Log("note: limit register was not recipe-pruned in this layout")
	}
}

// TestCheckpointSuccessorMatchesImportedRecovery is the durable-session
// contract: a planned power failure's successor machine and a machine
// recovered later from the serialized crash image must be indistinguishable
// — same milestone events, same outputs, same final memory.
func TestCheckpointSuccessorMatchesImportedRecovery(t *testing.T) {
	rt := newRT(t, mixProg(), smallCfg())
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	cut := clean.Stats.Cycles / 3
	if cut == 0 {
		t.Fatalf("run too short: %d cycles", clean.Stats.Cycles)
	}

	sys, err := rt.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if done, err := sys.RunUntilContext(context.Background(), cut); err != nil || done {
		t.Fatalf("pre-checkpoint run: done=%v err=%v", done, err)
	}
	res, err := rt.Checkpoint(sys)
	if err != nil {
		t.Fatal(err)
	}

	// Path A: continue on the checkpoint's own successor.
	var evA []probe.Event
	res.System.SetProbeSink(probe.SinkFunc(func(e probe.Event) {
		if probe.MilestoneKind(e.Kind) {
			evA = append(evA, e)
		}
	}))
	if err := res.System.RunContext(context.Background(), maxCycles); err != nil {
		t.Fatal(err)
	}

	// Path B: serialize the durable image, deserialize, recover, continue —
	// what a restarted server does.
	imported, err := mem.ImportImage(res.Image.Export())
	if err != nil {
		t.Fatal(err)
	}
	recB, err := rt.Recover(imported, res.Report.RegionCounter)
	if err != nil {
		t.Fatal(err)
	}
	var evB []probe.Event
	recB.SetProbeSink(probe.SinkFunc(func(e probe.Event) {
		if probe.MilestoneKind(e.Kind) {
			evB = append(evB, e)
		}
	}))
	if err := recB.RunContext(context.Background(), maxCycles); err != nil {
		t.Fatal(err)
	}

	if len(evA) != len(evB) {
		t.Fatalf("milestone counts diverge: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("milestone %d diverges: %+v vs %+v", i, evA[i], evB[i])
		}
	}
	if len(res.System.Output) != len(recB.Output) {
		t.Fatalf("output lengths diverge: %d vs %d", len(res.System.Output), len(recB.Output))
	}
	for i := range res.System.Output {
		if res.System.Output[i] != recB.Output[i] {
			t.Fatalf("output %d diverges", i)
		}
	}
	if !res.System.PM().Equal(recB.PM()) {
		t.Fatalf("final PM diverges: %v", res.System.PM().Diff(recB.PM(), 5))
	}
	// And the whole detour is invisible to the program: final data matches
	// the failure-free run.
	if err := recovery.VerifyEquivalence(recB.PM(), clean.PM()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRequiresRecoveryMetadata(t *testing.T) {
	sch := machine.Scheme{Name: "plain"} // uninstrumented: no checkpoints
	rt, err := NewRuntimeFor(mixProg(), compiler.Config{}, smallCfg(), sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rt.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if done, err := sys.RunUntilContext(context.Background(), 100); err != nil || done {
		t.Fatalf("short run: done=%v err=%v", done, err)
	}
	if _, err := rt.Checkpoint(sys); !errors.Is(err, wsperr.ErrUnrecoverable) {
		t.Fatalf("checkpoint without metadata: %v", err)
	}
}
