package crashfuzz

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/faults"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
	"lightwsp/internal/probe"
	"lightwsp/internal/wsperr"
)

// stuckPlan and stuckDeadline are the stuck-controller regime of
// TestStuckMCFaultCampaignPasses: the shortened degrade deadline puts cuts
// among parked messages and degraded, undo-logging controllers.
var stuckPlan = faults.Plan{Seed: 5, StuckMC: 1, StuckFrom: 100, StuckFor: 600}

const stuckDeadline = 150

// walkPlans are the fabric regimes the walk is checked under: a perfect
// fabric, the full fault gauntlet, and a stuck controller.
var walkPlans = []struct {
	name            string
	plan            faults.Plan
	degradeDeadline uint64
}{
	{"none", faults.Plan{}, 0},
	{"gauntlet", gauntlet(7), 0},
	{"stuck", stuckPlan, stuckDeadline},
}

// walkRuntime compiles a smoke profile the way a campaign does.
func walkRuntime(t *testing.T, name string, degradeDeadline uint64) *core.Runtime {
	t.Helper()
	p := smokeProfile(t, name)
	mcfg := resolveTestMachine(p)
	mcfg.DegradeDeadline = degradeDeadline
	rt, err := buildRuntime(p, compiler.Config{}, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// crashImageCheck steps one walker machine under plan through cycles 0,
// stride, 2·stride, … of an untouched run, and at each compares its
// CrashImage with the PowerFail of a fresh machine stepped to that cycle
// plus skew. It returns how many cycles it checked and at how many the
// crash image or the drain report differed. A CrashImage that emits a probe
// event, or a walker that does not finish exactly like the untouched run,
// fails t: the copy must never touch live state.
func crashImageCheck(t *testing.T, rt *core.Runtime, plan faults.Plan, stride, skew uint64) (checked, imageDiffs, reportDiffs int) {
	t.Helper()
	boot := func() *machine.System {
		sys, err := rt.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		sys.SetFaultInjector(faults.New(plan))
		return sys
	}
	untouched := boot()
	if !untouched.Run(maxReplayCycles) {
		t.Fatal("untouched run did not complete")
	}
	end := untouched.Stats.Cycles
	walker := boot()
	events := 0
	walker.SetProbeSink(probe.SinkFunc(func(probe.Event) { events++ }))
	for cut := uint64(0); cut < end; cut += stride {
		if walker.RunUntil(cut) {
			t.Fatalf("walker finished by cycle %d, the untouched run at %d", cut, end)
		}
		before := events
		img, rep := walker.CrashImage()
		if events != before {
			t.Fatalf("CrashImage at cycle %d emitted %d probe events", cut, events-before)
		}
		fresh := boot()
		fresh.RunUntil(cut + skew)
		frep := fresh.PowerFail()
		checked++
		if !img.Equal(fresh.PM()) {
			imageDiffs++
		}
		if rep != frep {
			reportDiffs++
		}
	}
	// The walker gets exactly the untouched run's cycles to finish.
	if !walker.Run(end) || !walker.PM().Equal(untouched.PM()) || !reflect.DeepEqual(walker.Stats, untouched.Stats) {
		t.Fatalf("CrashImage calls changed the walker's run:\nwalker:    %+v\nuntouched: %+v", walker.Stats, untouched.Stats)
	}
	return checked, imageDiffs, reportDiffs
}

// TestCrashImageMatchesPowerFail is the walk's premise: at every cycle of
// fuzz-st and a stride of fuzz-mt, under each fabric regime, the crash image
// and drain report CrashImage takes from a machine that keeps running equal
// those of a fresh machine's PowerFail at that cycle.
func TestCrashImageMatchesPowerFail(t *testing.T) {
	if raceEnabled {
		t.Skip("per-cycle crash-image check too slow under -race")
	}
	if testing.Short() {
		t.Skip("per-cycle crash-image check skipped in -short mode")
	}
	for _, prof := range []struct {
		name   string
		stride uint64
	}{{"fuzz-st", 1}, {"fuzz-mt", 5}} {
		for _, wp := range walkPlans {
			prof, wp := prof, wp
			t.Run(prof.name+"/"+wp.name, func(t *testing.T) {
				t.Parallel()
				rt := walkRuntime(t, prof.name, wp.degradeDeadline)
				checked, imageDiffs, reportDiffs := crashImageCheck(t, rt, wp.plan, prof.stride, 0)
				if checked == 0 {
					t.Fatal("no cycle checked")
				}
				if imageDiffs != 0 || reportDiffs != 0 {
					t.Fatalf("%d of %d cycles: crash image differs at %d, drain report at %d",
						max(imageDiffs, reportDiffs), checked, imageDiffs, reportDiffs)
				}
			})
		}
	}
}

// TestCrashImageCheckCatchesSkew proves the check has teeth: compared with
// a machine stepped one cycle past each cut, the crash images must differ
// somewhere — not only the report's cycle stamp.
func TestCrashImageCheckCatchesSkew(t *testing.T) {
	if raceEnabled {
		t.Skip("per-cycle crash-image check too slow under -race")
	}
	rt := walkRuntime(t, "fuzz-st", 0)
	checked, imageDiffs, reportDiffs := crashImageCheck(t, rt, faults.Plan{}, 1, 1)
	if imageDiffs == 0 {
		t.Fatalf("a one-cycle skew went unnoticed by the image comparison over %d cycles", checked)
	}
	if reportDiffs != checked {
		t.Fatalf("drain reports matched at %d of %d skewed cycles", checked-reportDiffs, checked)
	}
}

// replayCampaign resolves cfg's campaign without the walk: every schedule
// is replayed from cycle 0 by Replay, one at a time, and judged and
// assembled exactly as a campaign does.
func replayCampaign(t *testing.T, cfg Config) *Result {
	t.Helper()
	c, err := newCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]outcome, len(c.scheds))
	for i, s := range c.scheds {
		if o, ok := c.cached(s); ok {
			outcomes[i] = o
			continue
		}
		rep, err := Replay(c.rt, s, c.maxCycles, cfg.CorruptPM, cfg.Faults)
		if err != nil {
			t.Fatal(err)
		}
		outcomes[i] = c.judge(s, rep)
	}
	res, err := c.result(outcomes, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkWalkedTails runs the walker over a fresh campaign of cfg and, on
// each crash image it hands over, the tail a worker runs, and requires the
// result of every handed-over schedule — final PM, final machine
// statistics, cuts fired, entries discarded — to equal Replay's from cycle
// 0. Sharers get no image; checkSharedTails covers them.
func checkWalkedTails(t *testing.T, cfg Config) {
	t.Helper()
	c, err := newCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	work := make(chan handoff)
	walked := make(chan error, 1)
	go func() {
		_, err := c.step(context.Background(), make([]outcome, len(c.scheds)), work)
		walked <- err
		close(work)
	}()
	tails := 0
	for h := range work {
		got, err := c.tail(h)
		if err != nil {
			t.Error(err)
			continue
		}
		s := c.scheds[h.i]
		want, err := Replay(c.rt, s, c.maxCycles, cfg.CorruptPM, cfg.Faults)
		if err != nil {
			t.Error(err)
			continue
		}
		tails++
		if got.Fired != want.Fired || got.Discarded != want.Discarded ||
			!got.Sys.PM().Equal(want.Sys.PM()) || !reflect.DeepEqual(got.Sys.Stats, want.Sys.Stats) {
			t.Errorf("schedule %v: walked tail (fired %d, discarded %d, %+v) differs from Replay (fired %d, discarded %d, %+v)",
				s, got.Fired, got.Discarded, got.Sys.Stats, want.Fired, want.Discarded, want.Sys.Stats)
		}
	}
	if err := <-walked; err != nil {
		t.Fatal(err)
	}
	if tails == 0 {
		t.Fatal("the walker handed over no crash image")
	}
}

// finalState is what a schedule's tail ends in: the final PM, the final
// machine statistics and the cuts fired.
type finalState struct {
	pm    *mem.Image
	stats machine.Stats
	fired int
}

func (a finalState) equal(b finalState) bool {
	return a.fired == b.fired && a.pm.Equal(b.pm) && reflect.DeepEqual(a.stats, b.stats)
}

// checkSharedTails walks a fresh campaign of cfg — with the test-only tail
// key that drops the later cuts, if brokenKey — and replays every sharer
// and its representative from cycle 0. A sharer takes its representative's
// outcome without running a tail, so their final states must be equal. It
// returns how many sharers it checked and at how many the states differed.
func checkSharedTails(t *testing.T, cfg Config, brokenKey bool) (sharers, differ int) {
	t.Helper()
	c, err := newCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.brokenKey = brokenKey
	work := make(chan handoff)
	go func() {
		for range work {
		}
	}()
	pairs, err := c.step(context.Background(), make([]outcome, len(c.scheds)), work)
	close(work)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(i int) finalState {
		r, err := Replay(c.rt, c.scheds[i], c.maxCycles, cfg.CorruptPM, cfg.Faults)
		if err != nil {
			t.Fatal(err)
		}
		return finalState{r.Sys.PM(), r.Sys.Stats, r.Fired}
	}
	reps := map[int]finalState{}
	for _, sh := range pairs {
		want, ok := reps[sh.rep]
		if !ok {
			want = replay(sh.rep)
			reps[sh.rep] = want
		}
		if !replay(sh.i).equal(want) {
			differ++
		}
	}
	return len(pairs), differ
}

// sharingConfig is an exhaustive campaign of the named smoke profile with
// the given cuts under a walkPlans regime.
func sharingConfig(t *testing.T, name string, cuts int, plan faults.Plan, degradeDeadline uint64) Config {
	cfg := Config{Profile: smokeProfile(t, name), Cuts: cuts, Seed: 1, Faults: plan}
	if degradeDeadline != 0 {
		cfg.Machine = experiments.ScaledConfig()
		cfg.Machine.DegradeDeadline = degradeDeadline
	}
	return cfg
}

// TestSharedTailsMatchReplay is the sharing oracle: in exhaustive one- and
// two-cut campaigns on fuzz-st and fuzz-mt, under each fabric regime, every
// schedule the walker shares ends, replayed from cycle 0, in the same PM,
// statistics and cuts fired as the representative whose outcome it takes.
func TestSharedTailsMatchReplay(t *testing.T) {
	if raceEnabled {
		t.Skip("exhaustive sharing check too slow under -race")
	}
	if testing.Short() {
		t.Skip("exhaustive sharing check skipped in -short mode")
	}
	for _, name := range []string{"fuzz-st", "fuzz-mt"} {
		for _, wp := range walkPlans {
			for cuts := 1; cuts <= 2; cuts++ {
				name, wp, cuts := name, wp, cuts
				t.Run(fmt.Sprintf("%s/%s/cuts%d", name, wp.name, cuts), func(t *testing.T) {
					t.Parallel()
					sharers, differ := checkSharedTails(t, sharingConfig(t, name, cuts, wp.plan, wp.degradeDeadline), false)
					if sharers == 0 {
						t.Fatal("no schedule shared a tail")
					}
					if differ != 0 {
						t.Fatalf("%d of %d sharers end unlike their representative", differ, sharers)
					}
				})
			}
		}
	}
}

// TestSharedTailsCheckCatchesDroppedCuts proves the sharing oracle has
// teeth: keyed without its later cuts, a two-cut campaign shares tails
// between schedules whose second cuts differ, and the check must see their
// final states differ.
func TestSharedTailsCheckCatchesDroppedCuts(t *testing.T) {
	if raceEnabled {
		t.Skip("exhaustive sharing check too slow under -race")
	}
	sharers, differ := checkSharedTails(t, sharingConfig(t, "fuzz-mt", 2, faults.Plan{}, 0), true)
	if differ == 0 {
		t.Fatalf("a tail key without the later cuts went unnoticed over %d sharers", sharers)
	}
}

// TestShareCarriesOutcome pins what a sharer takes from its representative
// beyond a pass: the representative's error, or its divergence with its
// shrunk reproducer, but not its shrink replays or their cuts, which ran
// once and count once. A divergent or failed sharer memoizes nothing.
func TestShareCarriesOutcome(t *testing.T) {
	cfg := Config{
		Profile:             smokeProfile(t, "fuzz-st"),
		ExhaustiveThreshold: 1,
		MaxInjections:       1,
		Cache:               experiments.NewBlobCache(filepath.Join(t.TempDir(), "verdicts")),
	}
	c, err := newCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{17, 4}
	failed := errors.New("recover failed")
	repro := &Repro{Cuts: Schedule{3}}
	for _, tc := range []struct{ rep, want outcome }{
		{outcome{err: failed}, outcome{err: failed}},
		{outcome{fired: 2, shrinkCuts: 40, shrinkReplays: 20, repro: repro},
			outcome{shared: true, fired: 2, repro: repro}},
	} {
		if got := c.share(sched, tc.rep); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("sharer of %+v took %+v, want %+v", tc.rep, got, tc.want)
		}
	}
	if _, ok := c.cached(sched); ok {
		t.Fatal("a failed or divergent sharer memoized a passing verdict")
	}
}

// untimed clears a manifest's wall-clock fields.
func untimed(r *Result) *Result {
	r.WallSeconds, r.InjectionsPerSec = 0, 0
	return r
}

// TestWalkMatchesReplay checks the walk against its definition: a sampled
// campaign's manifest equals the one built from Replay on each planned
// schedule, timing and the shared-tail count aside, and each handed-over
// schedule's walked tail ends in the same machine as its Replay — with one
// and two cuts, fault plans, a partly warm verdict cache (cached schedules
// sit between walked ones), and a corrupting recovery whose divergences are
// shrunk. Every case shares some tails, except the corrupting one, which
// shares none.
func TestWalkMatchesReplay(t *testing.T) {
	base := Config{
		Profile:             smokeProfile(t, "fuzz-st"),
		ExhaustiveThreshold: 1,
		MaxInjections:       12,
		MaxInteresting:      6,
		Seed:                4,
		Workers:             2,
	}
	mt := smokeProfile(t, "fuzz-mt")
	cases := map[string]func(*Config){
		"cuts1":  func(*Config) {},
		"cuts2":  func(c *Config) { c.Cuts = 2 },
		"faults": func(c *Config) { c.Cuts = 2; c.Faults = gauntlet(7) },
		"stuck-mt": func(c *Config) {
			c.Profile = mt
			c.Machine = experiments.ScaledConfig()
			c.Machine.DegradeDeadline = stuckDeadline
			c.Faults = stuckPlan
		},
		"corrupt": func(c *Config) {
			c.MaxInjections, c.MaxInteresting = 4, 1
			c.CorruptPM = func(pm *mem.Image) { pm.Write(0x38, 0xDEAD) }
		},
	}
	for name, mut := range cases {
		name, mut := name, mut
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			mut(&cfg)
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if shares := cfg.CorruptPM == nil; shares != (got.SharedTails > 0) {
				t.Fatalf("%d of %d schedules shared a tail, corrupting recovery %v",
					got.SharedTails, got.CyclesCovered, !shares)
			}
			want := replayCampaign(t, cfg)
			got.SharedTails = 0 // the reference runs every tail
			if !reflect.DeepEqual(untimed(got), untimed(want)) {
				t.Fatalf("walk and replay disagree:\nwalk:   %+v\nreplay: %+v", got, want)
			}
			checkWalkedTails(t, cfg)
			if got.Injections == 0 {
				t.Fatal("campaign fired nothing")
			}
			if cfg.CorruptPM != nil && got.Divergences == 0 {
				t.Fatal("corrupted recovery not caught")
			}
		})
	}

	t.Run("warm-cache", func(t *testing.T) {
		t.Parallel()
		// Two caches warmed alike by a smaller campaign with the same seed,
		// whose schedules are a subset: the walk runs on one, the replay
		// reference on the other.
		warm := func() experiments.Store {
			cache := experiments.NewBlobCache(filepath.Join(t.TempDir(), "verdicts"))
			small := base
			small.MaxInjections, small.Cache = 4, cache
			if _, err := Run(small); err != nil {
				t.Fatal(err)
			}
			return cache
		}
		cfg := base
		cfg.Cache = warm()
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = warm()
		want := replayCampaign(t, cfg)
		got.SharedTails = 0
		if !reflect.DeepEqual(untimed(got), untimed(want)) {
			t.Fatalf("walk and replay disagree on a warm cache:\nwalk:   %+v\nreplay: %+v", got, want)
		}
		cfg.Cache = warm()
		checkWalkedTails(t, cfg)
		if got.CacheHits == 0 || got.CacheHits == got.CyclesCovered {
			t.Fatalf("%d cache hits over %d schedules: want a partly warm cache", got.CacheHits, got.CyclesCovered)
		}
	})
}

// TestWalkPastCompletion appends schedules whose first cut lies beyond the
// run's end: the walker finishes first, so they fire nothing and take
// their verdict on the finished walker — the outcome Replay gives them.
func TestWalkPastCompletion(t *testing.T) {
	c, err := newCampaign(context.Background(), Config{
		Profile:             smokeProfile(t, "fuzz-st"),
		ExhaustiveThreshold: 1,
		MaxInjections:       2,
		MaxInteresting:      1,
		Workers:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := c.orc.cycles
	late := []Schedule{{end + 10}, {end + 20, 5}}
	c.scheds = append(c.scheds, late...)
	outcomes, err := c.walk(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range late {
		rep, err := Replay(c.rt, s, c.maxCycles, nil, faults.Plan{})
		if err != nil {
			t.Fatal(err)
		}
		want := c.judge(s, rep)
		if got := outcomes[len(outcomes)-len(late)+k]; !reflect.DeepEqual(got, want) || got.fired != 0 {
			t.Fatalf("schedule %v past completion: walk %+v, replay %+v", s, got, want)
		}
	}
}

// TestWalkFinishesOnOneSlot runs campaigns whose workers share a single
// pool slot — one campaign with Workers: 1, and two at once on one shared
// one-slot Pool. The walker steps outside the pool, so none can deadlock.
func TestWalkFinishesOnOneSlot(t *testing.T) {
	cfg := Config{
		Profile:             smokeProfile(t, "fuzz-mt"),
		ExhaustiveThreshold: 1,
		MaxInjections:       8,
		MaxInteresting:      4,
		Seed:                6,
	}
	one := cfg
	one.Workers = 1
	shared := cfg
	shared.Pool = experiments.NewPool(1)
	runs := []Config{one, shared, shared}

	errs := make(chan error, len(runs))
	for _, c := range runs {
		go func(c Config) {
			_, err := Run(c)
			errs <- err
		}(c)
	}
	timeout := time.After(2 * time.Minute)
	for range runs {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("a campaign on a one-slot pool did not finish")
		}
	}
}

// TestCancelMidWalk cancels a campaign from inside its first resolved
// schedule: RunContext must return an error wrapping wsperr.ErrCanceled,
// and no worker may be left blocked on the hand-off.
func TestCancelMidWalk(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := RunContext(ctx, Config{
		Profile:   smokeProfile(t, "fuzz-st"),
		Seed:      1,
		Workers:   2,
		CorruptPM: func(*mem.Image) { once.Do(cancel) },
	})
	if !errors.Is(err, wsperr.ErrCanceled) {
		t.Fatalf("canceled campaign returned %v, want wsperr.ErrCanceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left after the canceled campaign (%d before):\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// errAfter is a context whose Err reports cancellation from its second
// call on: the campaign's up-front check passes, the oracle's first cycle
// batch sees a canceled context.
type errAfter struct {
	context.Context
	mu    sync.Mutex
	calls int
}

func (c *errAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > 1 {
		return context.Canceled
	}
	return nil
}

// TestCancelStopsOracle proves the oracle run observes the campaign's
// context instead of running to completion.
func TestCancelStopsOracle(t *testing.T) {
	_, err := RunContext(&errAfter{Context: context.Background()}, Config{
		Profile: smokeProfile(t, "fuzz-st"),
		Seed:    1,
	})
	if !errors.Is(err, wsperr.ErrCanceled) || !strings.Contains(err.Error(), "oracle run") {
		t.Fatalf("campaign returned %v, want the oracle run canceled", err)
	}
}
