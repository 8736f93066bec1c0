package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/experiments"
	"lightwsp/internal/isa"
	"lightwsp/internal/machine"
	"lightwsp/internal/metrics"
	"lightwsp/internal/workload"
)

// sweepSpec names one simulation of the sweep.
type sweepSpec struct{ suite, app, scheme string }

func (s sweepSpec) key() string { return s.suite + "/" + s.app + "/" + s.scheme }

// sweepSpecs is sim_sweep's population in dispatch order, longest first.
// fleet_rw's set-up fetches the same 16 runs. Single-run host times on a
// 2-CPU x86-64 container range from 1.45 s (tatp/lightwsp) to 0.05 s
// (nab/baseline); the list spans L1- to DRAM-cache-resident working sets
// and 1- and 8-thread profiles.
var sweepSpecs = []sweepSpec{
	{"WHISPER", "tatp", "lightwsp"},
	{"SPLASH3", "fft", "lightwsp"},
	{"STAMP", "vacation", "lightwsp"},
	{"CPU2006", "libquan", "lightwsp"},
	{"CPU2006", "lbm", "lightwsp"},
	{"CPU2006", "libquan", "baseline"},
	{"WHISPER", "tatp", "baseline"},
	{"NPB", "ep", "lightwsp"},
	{"CPU2006", "lbm", "baseline"},
	{"STAMP", "vacation", "baseline"},
	{"SPLASH3", "fft", "baseline"},
	{"CPU2006", "hmmer", "lightwsp"},
	{"CPU2017", "nab", "lightwsp"},
	{"NPB", "ep", "baseline"},
	{"CPU2006", "hmmer", "baseline"},
	{"CPU2017", "nab", "baseline"},
}

// simRun is one sweepSpec resolved against the program's registries.
type simRun struct {
	sweepSpec
	prof workload.Profile
	sch  machine.Scheme
}

func resolveSweep() ([]simRun, error) {
	out := make([]simRun, len(sweepSpecs))
	for i, s := range sweepSpecs {
		p, ok := workload.ByName(workload.Suite(s.suite), s.app)
		if !ok {
			return nil, fmt.Errorf("unknown workload %s", s.key())
		}
		sch, ok := experiments.SchemeByName(s.scheme)
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q", s.scheme)
		}
		out[i] = simRun{sweepSpec: s, prof: p, sch: sch}
	}
	return out, nil
}

// checkDigest compares a run's statistics with the committed digest.
func checkDigest(exp expected, s sweepSpec, st *machine.Stats) error {
	want, ok := exp.Sim[s.key()]
	if !ok {
		return fmt.Errorf("%s: no committed digest", s.key())
	}
	if got := statsDigest(st); got != want {
		return fmt.Errorf("%s: stats digest %s, committed %s", s.key(), got[:16], want[:16])
	}
	return nil
}

// freshRunner is a Runner with no disk cache, so every Run simulates.
func freshRunner() *experiments.Runner {
	r := experiments.NewRunner()
	r.SetWorkers(callers)
	r.SetCacheDir("")
	return r
}

// sweep runs every spec once through Runner.Run on a fresh Runner, in
// dispatch order on the closed-loop callers, and hands done each outcome
// with its Runner.Run time in seconds. done runs on the caller that made
// the call. sweep returns the Runner and the pass's wall time in seconds.
func sweep(runs []simRun, done func(i int, st *machine.Stats, err error, secs float64)) (*experiments.Runner, float64) {
	r := freshRunner()
	t0 := time.Now()
	closedLoop(len(runs), func(i int) {
		start := time.Now()
		st, err := r.Run(runs[i].prof, runs[i].sch, compiler.Config{})
		done(i, st, err, time.Since(start).Seconds())
	})
	return r, time.Since(t0).Seconds()
}

// untracedPass runs one pass, checks every output and returns the pass as
// a round of the measured phase.
func untracedPass(rc *runConfig, runs []simRun) round {
	_, wall := sweep(runs, func(i int, st *machine.Stats, err error, _ float64) {
		if err == nil {
			err = checkDigest(rc.exp, runs[i].sweepSpec, st)
		}
		rc.tally.op(err)
	})
	return round{wall: wall, ops: len(runs)}
}

// simCounts are the exact simulated counts the traced pass sums.
type simCounts struct {
	insts, cycles, ffSkipped, ffJumps, stallFEB, stallDrain uint64
	flushed, camSearches, undoWrites, l1Misses, dramMisses  uint64
}

func (c *simCounts) add(st *machine.Stats, skipped, jumps uint64) {
	c.insts += st.Instructions
	c.cycles += st.Cycles
	c.ffSkipped += skipped
	c.ffJumps += jumps
	c.stallFEB += st.StallFEBFull
	c.stallDrain += st.StallDrain
	c.flushed += st.PersistFlushed
	c.camSearches += st.WPQCAMSearches
	c.undoWrites += st.WPQUndoWrites
	c.l1Misses += st.L1Misses
	c.dramMisses += st.DRAMMisses
}

// opTimes sums, over a traced pass's ops, the untraced Runner.Run time,
// the simulation time Runner.Run records in each run's manifest, and the
// traced replica's op span.
type opTimes struct{ run, sim, span float64 }

func (t *opTimes) add(o opTimes) { t.run, t.sim, t.span = t.run+o.run, t.sim+o.sim, t.span+o.span }

// tracedPass runs each op twice back to back on the same caller, so both
// see the same host conditions: once through Runner.Run, untraced, and
// once split into the calls Runner.Run makes — build, compile, boot, step
// with a metrics sink attached — each inside a span. It returns the
// replica's simulated counts and the summed times.
func tracedPass(rc *runConfig, runs []simRun, tr *tracer, firstOp int64) (simCounts, opTimes, error) {
	var counts simCounts
	var sum opTimes
	var mu sync.Mutex
	runS := make([]float64, len(runs))
	r, _ := sweep(runs, func(i int, st *machine.Stats, err error, secs float64) {
		runS[i] = secs
		if err == nil {
			err = checkDigest(rc.exp, runs[i].sweepSpec, st)
		}
		rc.tally.op(err)

		op := firstOp + int64(i)
		root := tr.begin("experiments.op", op, -1)
		st, skipped, jumps, err := splitRun(tr, op, root, runs[i])
		span := tr.end(root)
		if err == nil {
			err = checkDigest(rc.exp, runs[i].sweepSpec, st)
		}
		rc.tally.op(err)
		mu.Lock()
		defer mu.Unlock()
		sum.span += span
		if err == nil {
			counts.add(st, skipped, jumps)
		}
	})
	sim := map[string]float64{}
	for _, m := range r.Manifests() {
		sim[m.Suite+"/"+m.App+"/"+m.Scheme] = m.WallSeconds
	}
	for i, s := range runs {
		w, ok := sim[s.key()]
		if !ok {
			return counts, sum, fmt.Errorf("%s: Runner recorded no manifest", s.key())
		}
		sum.run += runS[i]
		sum.sim += w
	}
	return counts, sum, nil
}

// splitRun performs one simulation the way Runner.Run does, one span per
// call, and returns the statistics and the fast-forward counters.
func splitRun(tr *tracer, op int64, root int, r simRun) (st *machine.Stats, skipped, jumps uint64, err error) {
	cfg, ccfg := experiments.ResolveConfigs(r.prof, compiler.Config{})
	var prog *isa.Program
	id := tr.begin("workload.build", op, root)
	prog, err = workload.Build(r.prof)
	tr.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	if r.sch.Instrumented {
		id = tr.begin("compiler.compile", op, root)
		res, cerr := compiler.Compile(prog, ccfg)
		tr.end(id)
		if cerr != nil {
			return nil, 0, 0, cerr
		}
		prog = res.Prog
	}
	id = tr.begin("machine.new_system", op, root)
	sys, err := machine.NewSystem(prog, cfg, r.sch)
	tr.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	sys.SetProbeSink(metrics.New())
	id = tr.begin("machine.step", op, root)
	err = sys.RunContext(context.Background(), experiments.MaxRunCycles)
	tr.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	skipped, jumps = sys.FastForwardStats()
	stats := sys.Stats
	return &stats, skipped, jumps, nil
}

// sweepSetups is how many set-ups a sim_sweep run times.
const sweepSetups = 3

// sweepSetup is sim_sweep's one-off work: one uncounted warm-up pass on a
// throwaway Runner, which builds, compiles and simulates the 16 programs
// and grows the heap to the size the measured passes run in. A warm-up
// output that differs from the committed one fails the set-up.
func sweepSetup(exp expected, runs []simRun) error {
	var mu sync.Mutex
	var errs error
	sweep(runs, func(i int, st *machine.Stats, err error, _ float64) {
		if err == nil {
			err = checkDigest(exp, runs[i].sweepSpec, st)
		}
		if err != nil {
			mu.Lock()
			errs = errors.Join(errs, err)
			mu.Unlock()
		}
	})
	return errs
}

// untracedPasses runs whole passes until d has elapsed.
func untracedPasses(rc *runConfig, runs []simRun, d time.Duration) []round {
	var out []round
	for deadline := time.Now().Add(d); len(out) == 0 || time.Now().Before(deadline); {
		p := untracedPass(rc, runs)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.3f s, %.4f ops/s\n", len(out), p.wall, float64(p.ops)/p.wall)
		out = append(out, p)
	}
	return out
}

// stepShareMin is the share of a sim_sweep op's host time that stepping
// must take in a traced run, or the run counts a failed op: the workload
// exists to expose the stepper.
const stepShareMin = 0.95

func runSimSweep(_ context.Context, rc *runConfig) (*result, error) {
	runs, err := resolveSweep()
	if err != nil {
		return nil, err
	}
	setupS, err := timedSetups(sweepSetups, func() error { return sweepSetup(rc.exp, runs) }, nil)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if !rc.trace {
		reportRounds(res, setupS, untracedPasses(rc, runs, rc.duration()))
		return res, nil
	}

	tr := newTracer()
	var counts simCounts
	var sum opTimes
	passes := 0
	gc0, alloc0 := goCounters()
	for deadline := time.Now().Add(rc.duration()); passes == 0 || time.Now().Before(deadline); passes++ {
		c, t, err := tracedPass(rc, runs, tr, int64(passes*len(runs)))
		if err != nil {
			return nil, err
		}
		counts = c // every pass simulates the same population
		sum.add(t)
	}
	gc1, alloc1 := goCounters()
	if err := tr.write(spansPath("sim_sweep", rc.seed)); err != nil {
		return nil, err
	}

	self, n := tr.layerTimes()
	perCall := func(name string) float64 { return self[name] / float64(max(n[name], 1)) }
	ops := float64(passes * len(runs))
	stepShare := self["machine.step"] / sum.span
	if stepShare < stepShareMin {
		rc.tally.op(fmt.Errorf("stepping is %.3f of the traced op time, want at least %.2f", stepShare, stepShareMin))
	}
	res.set("workload.build_s", perCall("workload.build"), "s")
	res.set("compiler.compile_s", perCall("compiler.compile"), "s")
	res.set("machine.new_system_s", perCall("machine.new_system"), "s")
	res.set("machine.step_s", perCall("machine.step"), "s")
	res.set("machine.step_share", stepShare, "ratio")
	res.set("experiments.op_s", sum.run/ops, "s")
	res.set("experiments.runner_overhead_s", (sum.run-sum.sim)/ops, "s")
	res.set("machine.host_ns_per_inst", self["machine.step"]*1e9/float64(counts.insts)/float64(passes), "ns")
	res.set("machine.sim_instructions", float64(counts.insts), "count")
	res.set("machine.sim_cycles", float64(counts.cycles), "count")
	res.set("machine.ff_skipped_cycles", float64(counts.ffSkipped), "count")
	res.set("machine.ff_jumps", float64(counts.ffJumps), "count")
	res.set("machine.stall_feb_full", float64(counts.stallFEB), "count")
	res.set("machine.stall_drain", float64(counts.stallDrain), "count")
	res.set("persistpath.flushed", float64(counts.flushed), "count")
	res.set("wpq.cam_searches", float64(counts.camSearches), "count")
	res.set("wpq.undo_writes", float64(counts.undoWrites), "count")
	res.set("mem.l1_misses", float64(counts.l1Misses), "count")
	res.set("mem.dram_misses", float64(counts.dramMisses), "count")
	res.set("go.gc_cpu_s", gc1-gc0, "s")
	res.set("go.alloc_mb", (alloc1-alloc0)/(1<<20), "MB")
	res.set("trace.overhead_pct", 100*(sum.span-sum.sim)/sum.sim, "%")
	return res, nil
}
