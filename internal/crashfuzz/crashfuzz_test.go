package crashfuzz

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/mem"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// smokeProfile returns the named miniature fuzz profile.
func smokeProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	for _, p := range workload.FuzzSmokeProfiles() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no smoke profile %q", name)
	return workload.Profile{}
}

// TestExhaustiveSmokeCampaignsPass is the harness's core claim: over EVERY
// cycle of each miniature workload — single- and multi-threaded — a power
// failure followed by recovery converges to the failure-free result. Skipped
// under -race (thousands of replays; the CI full lane runs the CLI smoke
// campaign instead).
func TestExhaustiveSmokeCampaignsPass(t *testing.T) {
	if raceEnabled {
		t.Skip("exhaustive campaign too slow under -race")
	}
	if testing.Short() {
		t.Skip("exhaustive campaign skipped in -short mode")
	}
	for _, p := range workload.FuzzSmokeProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res, err := Run(Config{Profile: p, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != "exhaustive" {
				t.Fatalf("smoke profile sampled (%d cycles); shrink the profile", res.OracleCycles)
			}
			if res.Divergences != 0 {
				t.Fatalf("%d divergences over %d cycles: %+v",
					res.Divergences, res.CyclesCovered, res.Repros)
			}
			if res.CyclesCovered != int(res.OracleCycles) {
				t.Fatalf("covered %d of %d cycles", res.CyclesCovered, res.OracleCycles)
			}
			if res.Injections == 0 || res.InterestingCycles == 0 {
				t.Fatalf("campaign fired %d injections, %d probe-guided cycles",
					res.Injections, res.InterestingCycles)
			}
		})
	}
}

// TestMultiCutCampaignPasses chains two successive power failures per
// schedule — every fourth one cutting again at cycle 0 of the recovered
// machine, a failure during recovery itself.
func TestMultiCutCampaignPasses(t *testing.T) {
	if raceEnabled {
		t.Skip("exhaustive campaign too slow under -race")
	}
	if testing.Short() {
		t.Skip("exhaustive campaign skipped in -short mode")
	}
	res, err := Run(Config{Profile: smokeProfile(t, "fuzz-st"), Cuts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergences != 0 {
		t.Fatalf("%d divergences with double cuts: %+v", res.Divergences, res.Repros)
	}
	// Double-cut schedules fire more injections than schedules.
	if res.Injections <= res.CyclesCovered {
		t.Fatalf("%d injections over %d double-cut schedules", res.Injections, res.CyclesCovered)
	}
}

// TestSmokeTailCounts pins how many schedules the exhaustive smoke
// campaigns plan and how many distinct recovery tails they run. Both are
// simulated behaviour, like the oracle, so they do not drift with host
// speed; a change meant to alter what the machine does updates them.
func TestSmokeTailCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("exhaustive campaign too slow under -race")
	}
	if testing.Short() {
		t.Skip("exhaustive campaign skipped in -short mode")
	}
	res, err := Smoke(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		app              string
		cuts             int
		schedules, tails int
	}{
		{"fuzz-st", 1, 2405, 45},
		{"fuzz-st", 2, 2405, 1755},
		{"fuzz-mt", 1, 770, 81},
		{"fuzz-mt", 2, 770, 591},
	}
	if len(res) != len(want) {
		t.Fatalf("smoke set ran %d campaigns, want %d", len(res), len(want))
	}
	for i, w := range want {
		r := res[i]
		if r.App != w.app || r.Cuts != w.cuts || r.CyclesCovered != w.schedules || r.CyclesCovered-r.SharedTails != w.tails {
			t.Errorf("%s, %d cut(s): %d schedules, %d distinct tails; want %s, %d cut(s): %d schedules, %d tails",
				r.App, r.Cuts, r.CyclesCovered, r.CyclesCovered-r.SharedTails, w.app, w.cuts, w.schedules, w.tails)
		}
	}
}

// TestBrokenRecoveryCaughtAndShrunk wires in an intentionally broken
// recovery — the accumulator's checkpoint slot is corrupted in every crash
// image — and demands the harness catch it and shrink each divergence to a
// single-cut reproducer that still fails when replayed.
func TestBrokenRecoveryCaughtAndShrunk(t *testing.T) {
	corrupt := func(pm *mem.Image) {
		// A recovery that scribbles on user data: the word never matches
		// the architectural state, so every cut — including the boot-image
		// cut at cycle 0 — diverges, and shrinking must converge there.
		pm.Write(0x38, 0xDEAD)
	}
	res, err := Run(Config{
		Profile:             smokeProfile(t, "fuzz-st"),
		ExhaustiveThreshold: 1, // force sampling: keep the shrink work small
		MaxInjections:       6,
		MaxInteresting:      1,
		Seed:                1,
		CorruptPM:           corrupt,
		OutDir:              t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergences == 0 {
		t.Fatal("corrupted recovery not caught")
	}
	if res.ShrinkReplays == 0 {
		t.Fatal("divergences reported without any shrinking")
	}
	// A corrupting recovery shares no tails, so every divergent schedule
	// has its own reproducer.
	if len(res.Repros) != res.Divergences || len(res.ReproPaths) != len(res.Repros) {
		t.Fatalf("%d divergences, %d repros, %d files written", res.Divergences, len(res.Repros), len(res.ReproPaths))
	}
	sawZero := false
	for _, r := range res.Repros {
		if len(r.Cuts) != 1 {
			t.Fatalf("repro not minimal: %d cuts (%v)", len(r.Cuts), r.Cuts)
		}
		if r.Cuts[0] == 0 {
			sawZero = true
		}
		if len(r.Diff) == 0 {
			t.Fatal("repro carries no divergence sample")
		}
	}
	// The corruption fails at the boot image too, so shrinking converges on
	// the cycle-0 cut.
	if !sawZero {
		t.Fatalf("no repro shrunk to the cycle-0 cut: %+v", res.Repros)
	}

	// The shrunk repro must still fail when replayed from its file under
	// the same broken recovery.
	r, err := LoadRepro(res.ReproPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	rt, err := experiments.BuildRuntime(r.Profile, core.Scheme(), r.Machine, r.Compiler, nil)
	if err != nil {
		t.Fatal(err)
	}
	orc, _, err := buildOracle(context.Background(), rt, maxReplayCycles, 0)
	if err != nil {
		t.Fatal(err)
	}
	if orc.hash != r.OracleHash || orc.cycles != r.OracleCycles {
		t.Fatalf("repro oracle (%d cycles, %s) does not match this tree (%d cycles, %s)",
			r.OracleCycles, r.OracleHash, orc.cycles, orc.hash)
	}
	rep, err := Replay(rt, r.Cuts, maxReplayCycles, corrupt, r.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if recovery.Verdict(rep.Sys, orc.pm, r.Machine.Threads) == nil {
		t.Fatalf("shrunk repro %v no longer fails", r.Cuts)
	}
	// Without the corruption the same schedule passes: the harness blamed
	// the broken recovery, not the machine.
	rep, err = Replay(rt, r.Cuts, maxReplayCycles, nil, r.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.Verdict(rep.Sys, orc.pm, r.Machine.Threads); err != nil {
		t.Fatalf("schedule %v fails even with healthy recovery: %v", r.Cuts, err)
	}
}

// TestOracleDeterministicAcrossParallelCampaigns runs the same campaign
// twice over a multi-worker pool: parallel replay order must not leak into
// the oracle or any reproduced number.
func TestOracleDeterministicAcrossParallelCampaigns(t *testing.T) {
	cfg := Config{
		Profile:             smokeProfile(t, "fuzz-mt"),
		ExhaustiveThreshold: 1, // sampled: bounded work, still parallel
		MaxInjections:       12,
		MaxInteresting:      8,
		Seed:                3,
		Workers:             4,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.WallSeconds, b.WallSeconds = 0, 0
	a.InjectionsPerSec, b.InjectionsPerSec = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel campaigns disagree:\n%+v\n%+v", a, b)
	}
	if a.Divergences != 0 {
		t.Fatalf("%d divergences: %+v", a.Divergences, a.Repros)
	}
}

// TestVerdictCacheRoundTrip proves a repeated campaign skips every proven
// schedule — and that the cache never changes the reported coverage.
func TestVerdictCacheRoundTrip(t *testing.T) {
	cache := experiments.NewBlobCache(filepath.Join(t.TempDir(), "verdicts"))
	cfg := Config{
		Profile:             smokeProfile(t, "fuzz-st"),
		ExhaustiveThreshold: 1,
		MaxInjections:       10,
		MaxInteresting:      4,
		Seed:                5,
		Cache:               cache,
	}
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold campaign hit the cache %d times", cold.CacheHits)
	}
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.CyclesCovered {
		t.Fatalf("warm campaign: %d hits over %d schedules", warm.CacheHits, warm.CyclesCovered)
	}
	if warm.Injections != cold.Injections || warm.OracleHash != cold.OracleHash {
		t.Fatalf("cache changed reported numbers: cold %+v, warm %+v", cold, warm)
	}
}

// TestCampaignKeyMatchesRunner pins a campaign's run identity: its KeyHash
// is the Runner's canonical key for the same LightWSP run, and a fixed
// hash. Cached verdicts and repro files are keyed by it, so a change that
// moves it orphans them.
func TestCampaignKeyMatchesRunner(t *testing.T) {
	hmmer, _ := workload.ByName(workload.CPU2006, "hmmer")
	tatp, _ := workload.ByName(workload.WHISPER, "tatp")
	for _, tc := range []struct {
		p    workload.Profile
		slow bool
		want string
	}{
		{smokeProfile(t, "fuzz-st"), false, "7ae12de2dcd74aab181a43bf0cfafa0a696c189af931cf24f62e602bc4425e55"},
		{smokeProfile(t, "fuzz-mt"), false, "82490c54c5b68b5bbbea4c4d76701e9f9714e01cab1afa9b276cf9562acc4973"},
		{hmmer, false, "501d059e3ecf9fc9abe1fdaf00cdcc6d70562ded8876125100385c7fd65ea576"},
		{tatp, true, "cd62166c2c498958732c8b503b736d6f166c6743b10d42606ac3cfad09eeb8dd"},
	} {
		t.Run(tc.p.Name, func(t *testing.T) {
			if tc.slow && raceEnabled {
				t.Skip("oracle run too slow under -race")
			}
			c, err := newCampaign(context.Background(), Config{Profile: tc.p, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			mcfg, ccfg := experiments.ResolveConfigs(tc.p, compiler.Config{})
			_, runner := experiments.CanonicalRunKey(tc.p, experiments.LightWSP(), mcfg, ccfg)
			if c.keyHash != runner {
				t.Errorf("campaign key %s, Runner key %s", c.keyHash, runner)
			}
			if c.keyHash != tc.want {
				t.Errorf("campaign key %s, want %s", c.keyHash, tc.want)
			}
		})
	}
}
