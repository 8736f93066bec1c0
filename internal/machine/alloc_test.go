package machine_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// benchRuntime builds an application and compiles it for LightWSP under the
// configuration the Runner and crashfuzz resolve, as the perfbench module
// builds its runs (crashRuntime in perfbench/crash.go).
func benchRuntime(t *testing.T, suite workload.Suite, app string) *core.Runtime {
	t.Helper()
	p, ok := workload.ByName(suite, app)
	if !ok {
		t.Fatalf("unknown workload %s/%s", suite, app)
	}
	prog, err := workload.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg, ccfg := experiments.ResolveConfigs(p, compiler.Config{})
	rt, err := core.NewRuntimeFor(prog, ccfg, cfg, core.Scheme(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestSteppingAllocations gates the heap allocations of stepping: hmmer
// under LightWSP, built as the crash_campaign benchmark builds it, steps
// from cycle 200,000 to 600,000 in at most 5,000 allocations. The store
// buffer, the front-end buffer and the channels get their storage once, when
// the machine is built, and the NoC reuses its delivery batch, so a tick
// allocates nothing; what is left is mostly the victim order a cache
// eviction builds (mem.Cache.Fill) and new PM pages, 2,841 in all. The
// count does not depend on host speed.
func TestSteppingAllocations(t *testing.T) {
	sys, err := benchRuntime(t, workload.CPU2006, "hmmer").NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.RunUntil(200_000) {
		t.Fatal("hmmer finished before cycle 200,000")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := sys.RunUntil(600_000)
	runtime.ReadMemStats(&after)
	if done {
		t.Fatal("hmmer finished before cycle 600,000")
	}
	n := after.Mallocs - before.Mallocs
	t.Logf("stepping cycles 200,000-600,000: %d allocations, %d KiB", n, (after.TotalAlloc-before.TotalAlloc)>>10)
	if n > 5_000 {
		t.Fatalf("%d allocations, bound 5,000", n)
	}
}

// TestHmmerOracleMatchesBenchmark pins the crash_campaign benchmark's
// failure-free oracle (perfbench/expected.json): hmmer under LightWSP, built
// as the benchmark builds it, runs to completion in 734,634 cycles with PM
// hash c8370567a044e705, and its PM equals its architectural state. A
// change meant to alter simulation updates these figures here and in the
// benchmark's expected outputs together.
func TestHmmerOracleMatchesBenchmark(t *testing.T) {
	sys, err := benchRuntime(t, workload.CPU2006, "hmmer").Run(context.Background(), experiments.MaxRunCycles)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.VerifyPMMatchesArch(sys.PM(), sys.Arch()); err != nil {
		t.Fatal(err)
	}
	const wantCycles, wantHash = 734_634, "c8370567a044e705"
	if got := fmt.Sprintf("%016x", sys.PM().Hash()); sys.Stats.Cycles != wantCycles || got != wantHash {
		t.Fatalf("hmmer ran %d cycles with PM hash %s, want %d and %s", sys.Stats.Cycles, got, wantCycles, wantHash)
	}
}

// TestStepperWorkCounts pins the scheduler's work on two runs built as the
// benchmark builds them: the cycles Tick ran, the jumps taken and the
// next-event scans made. The counts are exact and do not depend on the
// host, so a change that makes the stepper do more work fails here even
// where a timing would drown it in noise. Every simulated statistic stays
// as it is (the cycle counts below); only a change to the stepper's
// scheduling should move the pinned counts.
func TestStepperWorkCounts(t *testing.T) {
	for _, tc := range []struct {
		suite                        workload.Suite
		app                          string
		cycles, ticked, jumps, scans uint64
	}{
		{workload.CPU2006, "hmmer", 734_634, 294_151, 3_746, 43_832},
		{workload.SPLASH3, "fft", 794_771, 792_069, 76, 469_091},
	} {
		t.Run(tc.app, func(t *testing.T) {
			sys, err := benchRuntime(t, tc.suite, tc.app).NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RunContext(context.Background(), experiments.MaxRunCycles); err != nil {
				t.Fatal(err)
			}
			skipped, jumps := sys.FastForwardStats()
			got := [4]uint64{sys.Stats.Cycles, sys.Stats.Cycles - skipped, jumps, sys.FastForwardScans()}
			want := [4]uint64{tc.cycles, tc.ticked, tc.jumps, tc.scans}
			if got != want {
				t.Fatalf("cycles, ticked cycles, jumps, scans = %v, want %v", got, want)
			}
		})
	}
}
