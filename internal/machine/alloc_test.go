package machine_test

import (
	"runtime"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/workload"
)

// TestSteppingAllocations gates the heap allocations of stepping: hmmer
// under LightWSP, built as the crash_campaign benchmark builds it, steps
// from cycle 200,000 to 600,000 in at most 5,000 allocations. The store
// buffer, the front-end buffer and the channels get their storage once, when
// the machine is built, and the NoC reuses its delivery batch, so a tick
// allocates nothing; what is left is mostly the victim order a cache
// eviction builds (mem.Cache.Fill) and new PM pages, 2,841 in all. The
// count does not depend on host speed.
func TestSteppingAllocations(t *testing.T) {
	p, ok := workload.ByName(workload.CPU2006, "hmmer")
	if !ok {
		t.Fatal("unknown workload CPU2006/hmmer")
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
	sys, err := rt.NewSystem()
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
