package machine

import (
	"fmt"
	"reflect"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/faults"
	"lightwsp/internal/isa"
	"lightwsp/internal/workload"
)

// This file is the tentpole regression of the event/epoch stepper: the fast
// path must be byte-identical to the naive per-cycle reference over the full
// 38-workload evaluation matrix — same final PM image, same architectural
// memory, same statistics, same probe event stream (order, cycles and
// payloads) — including fault-injected and stuck-controller runs. The
// workloads are the real evaluation profiles under the experiment harness's
// scaled Table I configuration; only the iteration counts are trimmed so the
// matrix stays runnable inside the tier-1 suite (and further under -race).

// equivIters bounds a profile's outer-loop trip count for the matrix run.
func equivIters() int {
	if raceEnabled || testing.Short() {
		return 100
	}
	return 300
}

// scaledEquivConfig mirrors experiments.ScaledConfig + resolve (which cannot
// be imported here without a cycle): the Table I configuration with
// capacity-class parameters scaled 8× down and the profile's thread count.
func scaledEquivConfig(p workload.Profile) Config {
	cfg := DefaultConfig()
	cfg.L2Size = 2 << 20
	cfg.DRAMCacheSize = 512 << 20
	cfg.Threads = p.Threads
	if cfg.Threads > cfg.Cores {
		cfg.Cores = cfg.Threads
	}
	return cfg
}

// buildEquivProg builds and (for instrumented schemes) compiles one profile,
// with the §IV-A store-threshold default the harness uses.
func buildEquivProg(t *testing.T, p workload.Profile, cfg Config, sch Scheme) *isa.Program {
	t.Helper()
	prog, err := workload.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Instrumented {
		return prog
	}
	res, err := compiler.Compile(prog, compiler.Config{}.Resolve(cfg.WPQEntries))
	if err != nil {
		t.Fatal(err)
	}
	return res.Prog
}

// equivPair builds, runs and compares the naive and fast steppers for one
// (profile, scheme, fault plan) cell, and returns the fast system for any
// extra assertions.
func equivPair(t *testing.T, p workload.Profile, sch Scheme, plan *faults.Plan, mut func(*Config)) *System {
	t.Helper()
	cfg := scaledEquivConfig(p)
	if mut != nil {
		mut(&cfg)
	}
	prog := buildEquivProg(t, p, cfg, sch)
	mk := func() *System {
		sys, err := NewSystem(prog, cfg, sch)
		if err != nil {
			t.Fatal(err)
		}
		if plan != nil {
			sys.SetFaultInjector(faults.New(*plan))
		}
		return sys
	}
	naive, fast, nh, fh := steppedPair(t, mk, 2_000_000_000)
	assertIdentical(t, naive, fast, nh, fh)
	return fast
}

// TestFastMatchesNaiveFullMatrix sweeps every evaluation profile under
// LightWSP and the non-persistent baseline. The aggregate must also show
// the fast path actually skipping work, or the whole exercise is a no-op.
func TestFastMatchesNaiveFullMatrix(t *testing.T) {
	schemes := []Scheme{lightScheme(), plainScheme()}
	type agg struct {
		skipped, cycles uint64
	}
	results := make(chan agg, len(workload.Profiles())*len(schemes))
	t.Run("matrix", func(t *testing.T) {
		for _, sch := range schemes {
			for _, p := range workload.Profiles() {
				p.Iterations = equivIters()
				p, sch := p, sch
				t.Run(fmt.Sprintf("%s/%s/%s", p.Suite, p.Name, sch.Name), func(t *testing.T) {
					t.Parallel()
					fast := equivPair(t, p, sch, nil, nil)
					sk, _ := fast.FastForwardStats()
					results <- agg{skipped: sk, cycles: fast.Stats.Cycles}
				})
			}
		}
	})
	close(results)
	var total agg
	for r := range results {
		total.skipped += r.skipped
		total.cycles += r.cycles
	}
	if total.cycles == 0 {
		t.Fatal("matrix ran no cycles")
	}
	if total.skipped == 0 {
		t.Fatal("fast path skipped nothing across the whole matrix")
	}
	t.Logf("matrix fast-forward ratio: %.1f%% of %d cycles",
		float64(total.skipped)/float64(total.cycles)*100, total.cycles)
}

// TestFastMatchesNaiveUnderFaults replays the matrix's byte-identical
// oracle under the fault gauntlet (drop/dup/delay/reorder), a degrading
// stuck-controller window, and a transient stuck window that ends before
// the degrade deadline — the regimes where the scheduler must reproduce
// retry timers, parked-message release and degradation edges exactly.
func TestFastMatchesNaiveUnderFaults(t *testing.T) {
	profiles := map[string]bool{"lbm": true, "intruder": true, "rb": true, "cg": true}
	plans := []struct {
		name string
		plan faults.Plan
		mut  func(*Config)
	}{
		{"gauntlet",
			faults.Plan{Seed: 3, DropPct: 25, DupPct: 10, DelayPct: 20, MaxDelay: 16, ReorderPct: 10},
			func(c *Config) { c.RetryTimeout = 40 }},
		{"stuck-degrade",
			faults.Plan{Seed: 5, StuckMC: 1, StuckFrom: 100, StuckFor: 1500},
			func(c *Config) { c.RetryTimeout = 40; c.DegradeDeadline = 150 }},
		{"stuck-transient",
			faults.Plan{Seed: 9, StuckMC: 0, StuckFrom: 200, StuckFor: 300},
			func(c *Config) { c.RetryTimeout = 60 }},
		{"gauntlet-stuck",
			faults.Plan{Seed: 11, DropPct: 15, DupPct: 10, DelayPct: 15, MaxDelay: 12,
				StuckMC: 1, StuckFrom: 150, StuckFor: 900},
			func(c *Config) { c.RetryTimeout = 40; c.DegradeDeadline = 200 }},
	}
	for _, p := range workload.Profiles() {
		if !profiles[p.Name] || p.Suite == workload.CPU2017 {
			continue
		}
		p.Iterations = equivIters()
		for _, tc := range plans {
			p, tc := p, tc
			t.Run(fmt.Sprintf("%s/%s/%s", p.Suite, p.Name, tc.name), func(t *testing.T) {
				t.Parallel()
				equivPair(t, p, lightScheme(), &tc.plan, tc.mut)
			})
		}
	}
}

// TestFastMatchesNaiveAfterFailure pins the crash protocol: cutting power at
// the same cycle on both steppers must drain to the same PM image and the
// same failure report. This is what keeps crashfuzz repro schedules valid
// under the fast path.
func TestFastMatchesNaiveAfterFailure(t *testing.T) {
	p, ok := workload.ByName(workload.WHISPER, "tatp")
	if !ok {
		t.Fatal("tatp profile missing")
	}
	p.Iterations = 80
	cfg := scaledEquivConfig(p)
	sch := lightScheme()
	prog := buildEquivProg(t, p, cfg, sch)

	ref, err := NewSystem(prog, cfg, sch)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetNaiveStepper(true)
	if !ref.Run(2_000_000_000) {
		t.Fatal("reference run did not complete")
	}
	total := ref.Stats.Cycles
	step := total / 6
	if step == 0 {
		step = 1
	}
	for cut := step; cut < total; cut += step {
		cut := cut
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			t.Parallel()
			run := func(naiveStep bool) (*System, FailureReport) {
				sys, err := NewSystem(prog, cfg, sch)
				if err != nil {
					t.Fatal(err)
				}
				sys.SetNaiveStepper(naiveStep)
				if sys.RunUntil(cut) {
					t.Fatalf("done before cut %d", cut)
				}
				if sys.Cycle() != cut {
					t.Fatalf("stopped at %d, want %d", sys.Cycle(), cut)
				}
				return sys, sys.PowerFail()
			}
			nSys, nRep := run(true)
			fSys, fRep := run(false)
			if nRep != fRep {
				t.Errorf("failure reports diverge:\n naive: %+v\n fast:  %+v", nRep, fRep)
			}
			if !nSys.PM().Equal(fSys.PM()) {
				t.Error("post-drain PM images diverge")
			}
			if !reflect.DeepEqual(nSys.Stats, fSys.Stats) {
				t.Errorf("post-drain stats diverge:\n naive: %+v\n fast:  %+v", nSys.Stats, fSys.Stats)
			}
		})
	}
}
