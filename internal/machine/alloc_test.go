package machine_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/machine"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// benchRuntime builds an application for a scheme under the configuration
// the Runner and crashfuzz resolve, as the perfbench module builds its runs
// (crashRuntime in perfbench/crash.go): compiled for an instrumented scheme,
// as built for an uninstrumented one.
func benchRuntime(t *testing.T, suite workload.Suite, app string, sch machine.Scheme) *core.Runtime {
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
	rt, err := core.NewRuntimeFor(prog, ccfg, cfg, sch, nil)
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
	sys, err := benchRuntime(t, workload.CPU2006, "hmmer", core.Scheme()).NewSystem()
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
	sys, err := benchRuntime(t, workload.CPU2006, "hmmer", core.Scheme()).Run(context.Background(), experiments.MaxRunCycles)
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

// TestStepperWorkCounts pins runs built as the benchmark builds them: the
// simulated cycles, the scheduler's work (the cycles Tick ran, the jumps
// taken and the next-event scans made) and the final PM hash. The rows are
// hmmer and fft under LightWSP, and the memory-intensive apps whose idle
// spans the scheduler exists for under LightWSP and under the baseline.
// The counts are exact and do not depend on the host, so a change that makes
// the stepper do more work fails here even where a timing would drown it in
// noise: a fast path that never jumps, or scans before every tick, fails
// every row. Every LightWSP run ends with its PM equal to
// its architectural state; the baseline persists nothing, so its PM is the
// empty image. A change meant to alter simulation updates these figures,
// and hmmer's in the benchmark's expected outputs too; only a change to the
// stepper's scheduling should move the work counts alone.
func TestStepperWorkCounts(t *testing.T) {
	lightwsp, base := core.Scheme(), baseline.Baseline()
	const emptyPM = "cbf29ce484222325"
	for _, tc := range []struct {
		name                         string
		suite                        workload.Suite
		app                          string
		sch                          machine.Scheme
		cycles, ticked, jumps, scans uint64
		pmHash                       string
	}{
		{"hmmer", workload.CPU2006, "hmmer", lightwsp, 734_634, 294_151, 3_746, 43_832, "c8370567a044e705"},
		{"fft", workload.SPLASH3, "fft", lightwsp, 794_771, 792_069, 76, 469_091, "f2d398456a6e8167"},
		{"lbm", workload.CPU2006, "lbm", lightwsp, 6_177_010, 922_056, 72_217, 289_079, "a06caf6104a75637"},
		{"lbm-baseline", workload.CPU2006, "lbm", base, 6_147_329, 706_002, 62_126, 95_276, emptyPM},
		{"libquan", workload.CPU2006, "libquan", lightwsp, 14_486_536, 1_477_909, 166_768, 480_123, "2fdfed8298399f44"},
		{"libquan-baseline", workload.CPU2006, "libquan", base, 14_450_454, 1_185_891, 113_234, 215_109, emptyPM},
		{"milc", workload.CPU2006, "milc", lightwsp, 5_430_271, 1_053_763, 76_006, 262_264, "4ceab38edfdb38dc"},
		{"milc-baseline", workload.CPU2006, "milc", base, 5_399_857, 934_595, 73_046, 165_853, emptyPM},
		{"lbm-2017", workload.CPU2017, "lbm", lightwsp, 5_426_166, 898_820, 71_051, 281_104, "b7948519727a51c5"},
		{"lbm-2017-baseline", workload.CPU2017, "lbm", base, 5_396_426, 726_388, 52_198, 130_922, emptyPM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := benchRuntime(t, tc.suite, tc.app, tc.sch).Run(context.Background(), experiments.MaxRunCycles)
			if err != nil {
				t.Fatal(err)
			}
			skipped, jumps := sys.FastForwardStats()
			got := [4]uint64{sys.Stats.Cycles, sys.Stats.Cycles - skipped, jumps, sys.FastForwardScans()}
			want := [4]uint64{tc.cycles, tc.ticked, tc.jumps, tc.scans}
			if got != want {
				t.Errorf("cycles, ticked cycles, jumps, scans = %v, want %v", got, want)
			}
			if got := fmt.Sprintf("%016x", sys.PM().Hash()); got != tc.pmHash {
				t.Errorf("PM hash %s, want %s", got, tc.pmHash)
			}
			if tc.sch.Instrumented {
				if err := recovery.VerifyPMMatchesArch(sys.PM(), sys.Arch()); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
