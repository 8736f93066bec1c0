package core

import (
	"context"

	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/isa"
	"lightwsp/internal/machine"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// TestRandomProgramsCrashConsistency is the repository's strongest
// end-to-end property test: for randomly generated programs (loops, calls,
// diamonds, fences, atomics, store bursts), a power failure at arbitrary
// points followed by recovery must always reproduce the failure-free
// persisted image — across compiler thresholds, so chunked checkpoint runs
// and dense split boundaries are exercised too.
func TestRandomProgramsCrashConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("random sweep skipped in -short mode")
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Threads = 1
	for seed := int64(0); seed < 25; seed++ {
		prog := workload.RandomProgram(seed)
		threshold := []int{12, 32}[seed%2]
		rt, err := NewRuntimeFor(prog, compiler.Config{StoreThreshold: threshold, MaxUnroll: 4}, cfg, Scheme(), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		clean, err := rt.Run(context.Background(), 50_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total := clean.Stats.Cycles
		step := total / 7
		if step == 0 {
			step = 1
		}
		for fail := step; fail < total; fail += step {
			res, err := rt.RunWithFailure(context.Background(), fail, 50_000_000)
			if err != nil {
				t.Fatalf("seed %d failure at %d: %v", seed, fail, err)
			}
			if err := recovery.VerifyEquivalence(res.Recovered.PM(), clean.PM()); err != nil {
				t.Fatalf("seed %d threshold %d failure at %d/%d: %v",
					seed, threshold, fail, total, err)
			}
		}
	}
}

// TestRandomProgramsWholeSystemPersistence checks the WSP completeness
// property on random programs: after a failure-free run fully drains,
// PM holds the complete architectural data image.
func TestRandomProgramsWholeSystemPersistence(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Threads = 1
	for seed := int64(100); seed < 120; seed++ {
		rt, err := NewRuntimeFor(workload.RandomProgram(seed), compiler.Config{}, cfg, Scheme(), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sys, err := rt.Run(context.Background(), 50_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := recovery.VerifyPMMatchesArch(sys.PM(), sys.Arch()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestUnrollingPreservesSemantics compiles random programs with and without
// speculative loop unrolling and verifies the final persisted images agree:
// the §IV-A region-size extension must be a pure performance transformation.
func TestUnrollingPreservesSemantics(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Threads = 1
	for seed := int64(200); seed < 215; seed++ {
		prog := workload.RandomProgram(seed)
		run := func(unroll int) *machine.System {
			rt, err := NewRuntimeFor(prog, compiler.Config{StoreThreshold: 32, MaxUnroll: unroll}, cfg, Scheme(), nil)
			if err != nil {
				t.Fatalf("seed %d unroll %d: %v", seed, unroll, err)
			}
			sys, err := rt.Run(context.Background(), 50_000_000)
			if err != nil {
				t.Fatalf("seed %d unroll %d: %v", seed, unroll, err)
			}
			return sys
		}
		plain, unrolled := run(1), run(4)
		if err := recovery.VerifyEquivalence(unrolled.PM(), plain.PM()); err != nil {
			t.Fatalf("seed %d: unrolling changed the persisted result: %v", seed, err)
		}
	}
}

// TestManyThreadsCrashConsistency runs the locked-counter pattern at 16
// threads (the Figure 16 regime) with failures injected, checking the
// counter is exact after every recovery.
func TestManyThreadsCrashConsistency(t *testing.T) {
	b := isa.NewBuilder("mt16")
	b.Func("main")
	b.MovImm(3, 0x40000)
	b.MovImm(4, 0x40008)
	b.MovImm(7, 0)
	b.MovImm(8, 3)
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
	cfg.Cores = 16
	cfg.Threads = 16
	rt := newRT(t, p, cfg)
	clean, err := rt.Run(context.Background(), maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	const want = 16 * 3
	if got := clean.PM().Read(0x40008); got != want {
		t.Fatalf("clean counter = %d", got)
	}
	for _, frac := range []uint64{5, 3, 2} {
		res, err := rt.RunWithFailure(context.Background(), clean.Stats.Cycles/frac, maxCycles)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Recovered.PM().Read(0x40008); got != want {
			t.Fatalf("failure at 1/%d: counter = %d, want %d", frac, got, want)
		}
	}
}

// TestFourControllersCrashConsistency runs the random-program sweep with
// one and with four memory controllers: the bdry-ACK/flush-ACK protocol
// must generalize on both sides of the paper's two-controller configuration
// (§IV-B claims "multiple MCs" with no constant baked in; a single MC
// degenerates to no ACKs at all).
func TestFourControllersCrashConsistency(t *testing.T) {
	for _, numMCs := range []int{1, 4} {
		testControllers(t, numMCs)
	}
}

func testControllers(t *testing.T, numMCs int) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.Threads = 1
	cfg.NumMCs = numMCs
	for seed := int64(300); seed < 310; seed++ {
		rt, err := NewRuntimeFor(workload.RandomProgram(seed), compiler.Config{}, cfg, Scheme(), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		clean, err := rt.Run(context.Background(), 50_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		step := clean.Stats.Cycles / 5
		if step == 0 {
			step = 1
		}
		for fail := step; fail < clean.Stats.Cycles; fail += step {
			res, err := rt.RunWithFailure(context.Background(), fail, 50_000_000)
			if err != nil {
				t.Fatalf("seed %d fail %d: %v", seed, fail, err)
			}
			if err := recovery.VerifyEquivalence(res.Recovered.PM(), clean.PM()); err != nil {
				t.Fatalf("seed %d, %d MCs, failure at %d: %v", seed, numMCs, fail, err)
			}
		}
	}
}
