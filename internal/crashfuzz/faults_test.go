package crashfuzz

import (
	"context"
	"strings"
	"testing"

	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/faults"
	"lightwsp/internal/recovery"
)

// gauntlet is the combined fabric-fault plan the faulted campaigns run
// under: drops, duplicates, delays and reorders all enabled at once.
func gauntlet(seed int64) faults.Plan {
	return faults.Plan{
		Seed:       seed,
		DropPct:    20,
		DupPct:     10,
		DelayPct:   20,
		MaxDelay:   24,
		ReorderPct: 10,
	}
}

// TestFaultedExhaustiveCampaignPasses is the tentpole acceptance criterion:
// with the full fault gauntlet active in EVERY replay segment — drops,
// duplicates, delays and reorders on the MC fabric — a power cut at every
// cycle of the miniature workload still converges to the failure-free
// oracle. Reliable boundary/ACK delivery must make a lossy fabric
// indistinguishable from a perfect one.
func TestFaultedExhaustiveCampaignPasses(t *testing.T) {
	if raceEnabled {
		t.Skip("exhaustive campaign too slow under -race")
	}
	if testing.Short() {
		t.Skip("exhaustive campaign skipped in -short mode")
	}
	plan := gauntlet(7)
	res, err := Run(Config{Profile: smokeProfile(t, "fuzz-st"), Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "exhaustive" {
		t.Fatalf("smoke profile sampled (%d cycles); shrink the profile", res.OracleCycles)
	}
	if res.Divergences != 0 {
		t.Fatalf("%d divergences under fault plan %s: %+v", res.Divergences, plan, res.Repros)
	}
	if res.Faults != plan.String() {
		t.Fatalf("manifest records faults %q, campaign ran %q", res.Faults, plan)
	}
}

// TestStuckMCFaultCampaignPasses drives the graceful-degradation path under
// power cuts: controller 1 goes unresponsive mid-run for long enough to
// blow the degrade deadline, the survivors fall back to undo-logged eager
// persistence, and a cut at every cycle — including inside the stuck window
// and while degraded — must still recover to the oracle.
func TestStuckMCFaultCampaignPasses(t *testing.T) {
	if raceEnabled {
		t.Skip("exhaustive campaign too slow under -race")
	}
	if testing.Short() {
		t.Skip("exhaustive campaign skipped in -short mode")
	}
	m := experiments.ScaledConfig()
	m.DegradeDeadline = 150
	res, err := Run(Config{
		Profile: smokeProfile(t, "fuzz-st"),
		Machine: m,
		Seed:    1,
		Faults:  faults.Plan{Seed: 5, StuckMC: 1, StuckFrom: 100, StuckFor: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergences != 0 {
		t.Fatalf("%d divergences with a stuck controller: %+v", res.Divergences, res.Repros)
	}
	if res.Mode != "exhaustive" {
		t.Fatalf("smoke profile sampled (%d cycles)", res.OracleCycles)
	}
}

// TestBrokenDupAcksCaughtShrunkReplayed wires in the intentionally broken
// ACK bookkeeping (BrokenDupAcks counts boundary-ACK messages instead of
// deduplicating by peer) and demands the fault campaign catch it, shrink the
// repro — schedule and fault plan — and replay it from its JSON file. The
// plan combines duplication with a stuck third controller: while it is
// stuck, its boundary replicas sit in the persist path, so a duplicated ACK
// from the healthy peer double-counts to the all-peers threshold and the
// home controller flushes regions — checkpoint PCs included — that the
// stuck controller has never seen. A cut in that window discards the stuck
// controller's stores while recovery believes the regions complete. (Drops
// alone cannot expose this: the power-fail drain's Reannounce round heals
// every lost ACK, so only missing boundary knowledge is fatal.)
func TestBrokenDupAcksCaughtShrunkReplayed(t *testing.T) {
	if raceEnabled {
		t.Skip("fault campaign too slow under -race")
	}
	if testing.Short() {
		t.Skip("fault campaign skipped in -short mode")
	}
	m := experiments.ScaledConfig()
	m.NumMCs = 3
	m.BrokenDupAcks = true
	plan := faults.Plan{Seed: 11, DupPct: 60, StuckMC: 2, StuckFrom: 800, StuckFor: 400}
	res, err := Run(Config{
		Profile:             smokeProfile(t, "fuzz-st"),
		Machine:             m,
		ExhaustiveThreshold: 1, // force sampling: keep the shrink work small
		MaxInjections:       200,
		MaxInteresting:      16,
		Seed:                2,
		Faults:              plan,
		OutDir:              t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergences == 0 {
		t.Fatal("broken duplicate-ACK bookkeeping not caught")
	}
	if res.SharedTails == 0 {
		t.Fatal("no schedule shared a tail: the campaign did not run with sharing on")
	}
	if res.ShrinkReplays == 0 {
		t.Fatal("divergences reported without any shrinking")
	}
	// The 18 divergent schedules share one crash state: its tail is shrunk
	// once, and the campaign writes its one reproducer once.
	if res.Divergences != 18 || len(res.Repros) != 1 || len(res.ReproPaths) != 1 {
		t.Fatalf("%d divergences, %d repros, %d files written; want 18, 1, 1", res.Divergences, len(res.Repros), len(res.ReproPaths))
	}
	for _, r := range res.Repros {
		if len(r.Cuts) != 1 {
			t.Fatalf("repro not minimal: %d cuts (%v)", len(r.Cuts), r.Cuts)
		}
		// Plan shrinking may discover the injected duplicates are not even
		// needed — the reliability protocol's own replay re-ACKs already
		// provide duplicates for the broken counter to double-count — but
		// the stuck window is irreducible: without it every controller
		// holds every boundary and the drain converges.
		if !r.Faults.Enabled() || r.Faults.StuckFor == 0 {
			t.Fatalf("repro fault plan lost the stuck window the bug needs: %+v", r.Faults)
		}
		if !r.Machine.BrokenDupAcks {
			t.Fatal("repro does not pin the broken machine configuration")
		}
	}

	// The shrunk repro must still fail when replayed from its file — the
	// full ReplayRepro path: rebuild runtime, re-run the oracle, replay the
	// cuts under the shrunk fault plan.
	r, err := LoadRepro(res.ReproPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	rerr := ReplayRepro(r)
	if rerr == nil {
		t.Fatalf("shrunk repro %v under plan %s no longer fails", r.Cuts, r.Faults)
	}
	if !strings.Contains(rerr.Error(), "still fails") {
		t.Fatalf("replay failed for the wrong reason: %v", rerr)
	}

	// With healthy per-peer ACK bookkeeping the same schedule and fault
	// plan pass: the harness blamed the broken bookkeeping, not the fabric.
	healthy := r.Machine
	healthy.BrokenDupAcks = false
	rt, err := experiments.BuildRuntime(r.Profile, core.Scheme(), healthy, r.Compiler, nil)
	if err != nil {
		t.Fatal(err)
	}
	orc, _, err := buildOracle(context.Background(), rt, maxReplayCycles, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(rt, r.Cuts, maxReplayCycles, nil, r.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.Verdict(rep.Sys, orc.pm, healthy.Threads); err != nil {
		t.Fatalf("schedule %v fails even with healthy ACK bookkeeping: %v", r.Cuts, err)
	}
}
