package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/crashfuzz"
	"lightwsp/internal/experiments"
	"lightwsp/internal/mem"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// crash_campaign sizing. A campaign injects crashRandom uniform random cuts
// plus each of crashInteresting probe-guided cycles at -1, 0 and +1, so
// random cuts stay over half the schedules, as in the nightly -points 256
// campaign; one campaign takes 2.4-3.4 s on 2 workers of a 2-vCPU x86-64
// container.
const (
	crashRandom      = 16
	crashInteresting = 4
	crashSchedules   = crashRandom + 3*crashInteresting
	// earlyFrac bounds where hmmer's probe-guided cycles fall: all before
	// cycle 46,488 of 734,634.
	earlyFrac = 0.063
)

// crashRig is what a crash_campaign set-up leaves for the measurement.
type crashRig struct {
	prof   workload.Profile
	rt     *core.Runtime
	oracle *mem.Image
}

// crashSetups is how many set-ups a crash_campaign run times; warmRandom
// and warmInteresting size the uncounted warm-up campaign each runs.
const (
	crashSetups     = 3
	warmRandom      = 8
	warmInteresting = 2
)

// crashSetup builds and compiles hmmer, runs the failure-free oracle
// through core.Runtime.Run and checks its cycle count and PM hash, then
// runs one uncounted warm-up campaign with a fixed seed, which must match
// the committed oracle and not diverge.
func crashSetup(exp expected) (*crashRig, error) {
	p, rt, err := crashRuntime()
	if err != nil {
		return nil, err
	}
	pm, err := runOracle(rt, exp)
	if err != nil {
		return nil, err
	}
	res, err := crashfuzz.Run(crashConfig(p, 0, warmRandom, warmInteresting))
	if err == nil {
		err = checkCampaign(res, exp)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return &crashRig{prof: p, rt: rt, oracle: pm}, nil
}

// crashConfig is a sampled campaign on p: random uniform cuts plus the
// first interesting probe-guided cycles, each at -1, 0 and +1, one cut per
// schedule, no verdict cache, one worker per caller.
func crashConfig(p workload.Profile, seed int64, random, interesting int) crashfuzz.Config {
	return crashfuzz.Config{
		Profile:        p,
		Cuts:           1,
		Seed:           seed,
		Workers:        callers,
		MaxInjections:  random,
		MaxInteresting: interesting,
	}
}

// checkCampaign requires the committed oracle and no divergence.
func checkCampaign(res *crashfuzz.Result, exp expected) error {
	if res.OracleCycles != exp.OracleCycles || res.OracleHash != exp.OracleHash {
		return fmt.Errorf("oracle %d cycles hash %s, committed %d and %s",
			res.OracleCycles, res.OracleHash, exp.OracleCycles, exp.OracleHash)
	}
	if res.Divergences > 0 {
		return fmt.Errorf("%d of %d schedules diverged", res.Divergences, res.CyclesCovered)
	}
	return nil
}

// crashRuntime builds hmmer and compiles it for LightWSP under the
// configuration the Runner and crashfuzz resolve.
func crashRuntime() (workload.Profile, *core.Runtime, error) {
	p, ok := workload.ByName(workload.CPU2006, "hmmer")
	if !ok {
		return p, nil, fmt.Errorf("unknown workload CPU2006/hmmer")
	}
	prog, err := workload.Build(p)
	if err != nil {
		return p, nil, err
	}
	cfg, ccfg := experiments.ResolveConfigs(p, compiler.Config{})
	rt, err := core.NewRuntimeFor(prog, ccfg, cfg, core.Scheme(), nil)
	return p, rt, err
}

// oracle runs the program failure-free and returns its persisted image,
// cycle count and PM hash.
func oracle(rt *core.Runtime) (pm *mem.Image, cycles uint64, hash string, err error) {
	sys, err := rt.Run(context.Background(), experiments.MaxRunCycles)
	if err != nil {
		return nil, 0, "", err
	}
	if err := recovery.VerifyPMMatchesArch(sys.PM(), sys.Arch()); err != nil {
		return nil, 0, "", fmt.Errorf("oracle: %w", err)
	}
	return sys.PM(), sys.Stats.Cycles, fmt.Sprintf("%016x", sys.PM().Hash()), nil
}

// runOracle runs the oracle and checks it against the committed one.
func runOracle(rt *core.Runtime, exp expected) (*mem.Image, error) {
	pm, cycles, hash, err := oracle(rt)
	if err != nil {
		return nil, err
	}
	if cycles != exp.OracleCycles || hash != exp.OracleHash {
		return nil, fmt.Errorf("oracle ran %d cycles with PM hash %s, committed %d and %s",
			cycles, hash, exp.OracleCycles, exp.OracleHash)
	}
	return pm, nil
}

// campaignRun is one untraced campaign.
type campaignRun struct {
	wall                  float64
	schedules, injections int
	divergences           int
	failed                bool // the campaign errored or its oracle mismatched
}

func (c campaignRun) injPerS() float64 { return float64(c.injections) / c.wall }

// campaign runs the run's k-th crashfuzz campaign, seeded from the run's
// seed, and checks it: no divergence, and the committed oracle. Every
// schedule is one op; a campaign error or a wrong oracle fails all of them.
func campaign(rc *runConfig, rig *crashRig, k int) campaignRun {
	seed := rc.seed*1_000_003 + int64(k)
	t0 := time.Now()
	res, err := crashfuzz.Run(crashConfig(rig.prof, seed, crashRandom, crashInteresting))
	c := campaignRun{wall: time.Since(t0).Seconds()}
	switch {
	case err != nil:
		rc.tally.ops(crashSchedules, crashSchedules, fmt.Errorf("campaign seed %d: %w", seed, err))
		c.failed = true
	case res.OracleCycles != rc.exp.OracleCycles || res.OracleHash != rc.exp.OracleHash:
		rc.tally.ops(int64(res.CyclesCovered), int64(res.CyclesCovered),
			fmt.Errorf("campaign seed %d: %w", seed, checkCampaign(res, rc.exp)))
		c.failed = true
	default:
		rc.tally.ops(int64(res.CyclesCovered), int64(res.Divergences),
			fmt.Errorf("campaign seed %d: divergence", seed))
		c.schedules, c.injections, c.divergences = res.CyclesCovered, res.Injections, res.Divergences
	}
	fmt.Fprintf(os.Stderr, "perfbench: campaign %d: %.3f s, %d injections, %.4f/s\n", k, c.wall, c.injections, c.injPerS())
	return c
}

// injection replays one power cut through the core API, one span per
// call, the way a crashfuzz replay does it, and checks the outcome against
// the oracle. It returns the WPQ entries the drain discarded.
func injection(tr *tracer, op int64, rig *crashRig, cut uint64) (discarded int, err error) {
	root := tr.begin("crashfuzz.injection", op, -1)
	defer tr.end(root)
	id := tr.begin("core.new_system", op, root)
	sys, err := rig.rt.NewSystem()
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("machine.prefix_step", op, root)
	done := sys.RunUntil(cut)
	tr.end(id)
	if done {
		return 0, fmt.Errorf("cut at cycle %d: the run finished first", cut)
	}
	id = tr.begin("machine.powerfail", op, root)
	rep := sys.PowerFail()
	tr.end(id)
	id = tr.begin("core.recover", op, root)
	rec, err := rig.rt.Recover(sys.PM(), rep.RegionCounter)
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("cut at cycle %d: %w", cut, err)
	}
	id = tr.begin("machine.suffix_step", op, root)
	finished := rec.Run(experiments.MaxRunCycles)
	tr.end(id)
	if !finished {
		return 0, fmt.Errorf("cut at cycle %d: recovered run exceeded its cycle budget", cut)
	}
	id = tr.begin("recovery.verify", op, root)
	err = recovery.VerifyPMMatchesArch(rec.PM(), rec.Arch())
	if err == nil {
		err = recovery.VerifyEquivalence(rec.PM(), rig.oracle)
	}
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("cut at cycle %d diverged: %w", cut, err)
	}
	return rep.Discarded, nil
}

func runCrashCampaign(_ context.Context, rc *runConfig) (*result, error) {
	var rig *crashRig
	setupS, err := timedSetups(crashSetups, func() error {
		var err error
		rig, err = crashSetup(rc.exp)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if !rc.trace {
		var rounds []round
		for deadline := time.Now().Add(rc.duration()); len(rounds) == 0 || time.Now().Before(deadline); {
			c := campaign(rc, rig, len(rounds))
			rounds = append(rounds, round{wall: c.wall, ops: c.injections})
		}
		reportRounds(res, setupS, rounds)
		return res, nil
	}

	// Traced batches alternate with campaigns: an oracle run, then a
	// campaign-sized seeded sample of cuts in the campaign's
	// random/probe-guided proportions.
	tr := newTracer()
	var base []campaignRun
	var injS, batchRates []float64
	var discarded, divergences, batches int
	var mu sync.Mutex
	var batchErr error
	gcCPU, allocB := alternate(rc.duration(), func() {
		base = append(base, campaign(rc, rig, len(base)))
	}, func() {
		t0 := time.Now()
		op := int64(len(injS) + batches)
		root := tr.begin("crashfuzz.oracle", op, -1)
		_, err := runOracle(rig.rt, rc.exp)
		tr.end(root)
		if err != nil {
			batchErr = err
			return
		}
		cuts := cutSample(rc.seed*1_000_003+500_000+int64(batches), crashSchedules,
			rc.exp.OracleCycles, float64(crashRandom)/crashSchedules, earlyFrac)
		times := make([]float64, len(cuts))
		closedLoop(len(cuts), func(i int) {
			start := time.Now()
			d, err := injection(tr, op+1+int64(i), rig, cuts[i])
			times[i] = time.Since(start).Seconds()
			rc.tally.op(err)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				divergences++
			}
			discarded += d
		})
		injS = append(injS, times...)
		batchRates = append(batchRates, float64(len(cuts))/time.Since(t0).Seconds())
		batches++
	})
	if batchErr != nil {
		return nil, batchErr
	}
	if err := tr.write(spansPath("crash_campaign", rc.seed)); err != nil {
		return nil, err
	}

	self, n := tr.layerTimes()
	perCall := func(name string) float64 { return self[name] / float64(max(n[name], 1)) }
	var injTotal float64
	for _, s := range injS {
		injTotal += s
	}
	// The workload exists to expose stepping, prefix and suffix: anything
	// else taking over 5% of an injection counts as a failed op.
	stepShare := (self["machine.prefix_step"] + self["machine.suffix_step"]) / injTotal
	if stepShare < stepShareMin {
		rc.tally.op(fmt.Errorf("prefix and suffix stepping are %.3f of the injection time, want at least %.2f", stepShare, stepShareMin))
	}
	injMean := injTotal / float64(len(injS))
	var walls, schedules, injections []float64
	for _, c := range base {
		walls = append(walls, c.wall)
		schedules = append(schedules, float64(c.schedules))
		injections = append(injections, float64(c.injections))
		divergences += c.divergences
	}
	res.set("crashfuzz.oracle_s", perCall("crashfuzz.oracle"), "s")
	res.set("core.new_system_s", perCall("core.new_system"), "s")
	res.set("machine.prefix_step_s", perCall("machine.prefix_step"), "s")
	res.set("machine.powerfail_s", perCall("machine.powerfail"), "s")
	res.set("core.recover_s", perCall("core.recover"), "s")
	res.set("machine.suffix_step_s", perCall("machine.suffix_step"), "s")
	res.set("recovery.verify_s", perCall("recovery.verify"), "s")
	res.set("crashfuzz.injection_s", injMean, "s")
	res.set("crashfuzz.prefix_share", self["machine.prefix_step"]/injTotal, "ratio")
	res.set("crashfuzz.step_share", stepShare, "ratio")
	res.set("crashfuzz.campaign_overhead_s",
		median(walls)-perCall("crashfuzz.oracle")-median(injections)*injMean/callers, "s")
	res.set("crashfuzz.schedules", median(schedules), "count")
	res.set("crashfuzz.injections", median(injections), "count")
	res.set("crashfuzz.divergences", float64(divergences), "count")
	res.set("machine.powerfail_discarded", float64(discarded)/float64(len(injS)), "count")
	res.set("go.gc_cpu_s", gcCPU, "s")
	res.set("go.alloc_mb", allocB/(1<<20), "MB")
	res.set("trace.overhead_pct", overheadPct(median(injRates(base)), median(batchRates)), "%")
	return res, nil
}

func injRates(cs []campaignRun) []float64 {
	var out []float64
	for _, c := range cs {
		if !c.failed {
			out = append(out, c.injPerS())
		}
	}
	return out
}
