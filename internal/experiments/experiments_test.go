package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
	"lightwsp/internal/workload"
)

// The full figure drivers sweep all 39 applications and belong to the
// benchmark harness (bench_test.go at the repository root); these tests
// exercise every driver building block on small subsets so `go test` stays
// fast.

func TestScaledConfigPreservesLatencies(t *testing.T) {
	def, sc := machine.DefaultConfig(), ScaledConfig()
	if sc.L2Size >= def.L2Size || sc.DRAMCacheSize >= def.DRAMCacheSize {
		t.Fatal("capacity scaling missing")
	}
	if sc.PMReadLat != def.PMReadLat || sc.L2Lat != def.L2Lat || sc.WPQEntries != def.WPQEntries ||
		sc.PersistBytesPerCredit != def.PersistBytesPerCredit {
		t.Fatal("scaling must not touch latencies, queue sizes or bandwidths")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner()
	p, _ := workload.ByName(workload.CPU2006, "hmmer")
	a, err := r.Run(p, baseline.Baseline(), compiler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(p, baseline.Baseline(), compiler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical runs not memoized")
	}
	// A different mutator must miss the cache.
	c, err := r.Run(p, baseline.Baseline(), compiler.Config{}, func(c *machine.Config) { c.NUMAExtra++ })
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct configurations shared a cache entry")
	}
}

func TestSlowdownAboveOneForLightWSP(t *testing.T) {
	r := NewRunner()
	p, _ := workload.ByName(workload.CPU2006, "bzip2")
	sd, err := r.Slowdown(p, LightWSP(), compiler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sd < 1.0 || sd > 2.0 {
		t.Fatalf("bzip2 LightWSP slowdown = %.3f, outside sanity range", sd)
	}
}

func TestFig9ShapeHolds(t *testing.T) {
	// The Figure 9 driver is small enough (6 applications) to run whole:
	// the paper's headline shape — PSP loses badly without a DRAM cache,
	// LightWSP stays close to the baseline — must hold.
	r := NewRunner()
	res, err := Fig9(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 6 {
		t.Fatalf("fig9 apps = %d, want 6", len(res.Apps))
	}
	if res.Geo[0] <= res.Geo[1] {
		t.Fatalf("PSP (%.3f) must be slower than LightWSP (%.3f)", res.Geo[0], res.Geo[1])
	}
	if res.Geo[0] < 1.2 {
		t.Fatalf("PSP geomean %.3f too low: DRAM cache not mattering", res.Geo[0])
	}
	if !strings.Contains(res.String(), "libquan") {
		t.Fatal("fig9 table missing applications")
	}
}

func TestSweepEngineOnSubset(t *testing.T) {
	r := NewRunner()
	subset := ablationSet()[:2]
	res, err := sweep(r, "test sweep", []string{"a", "b"}, []sweepPoint{
		{ccfg: compiler.Config{StoreThreshold: 32, MaxUnroll: 4}},
		{ccfg: compiler.Config{StoreThreshold: 16, MaxUnroll: 4}},
	}, subset)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OverallGeo) != 2 {
		t.Fatalf("sweep columns = %d", len(res.OverallGeo))
	}
	for _, g := range res.OverallGeo {
		if g < 0.9 || g > 5 {
			t.Fatalf("sweep geomean %.3f out of sanity range", g)
		}
	}
	if !strings.Contains(res.String(), "test sweep") {
		t.Fatal("sweep table missing title")
	}
}

func TestCXLPresetsApply(t *testing.T) {
	presets := CXLPresets()
	if len(presets) != 4 {
		t.Fatalf("CXL presets = %d, want 4 (Table III)", len(presets))
	}
	for _, p := range presets {
		cfg := ScaledConfig()
		p.Apply()(&cfg)
		if cfg.PMReadLat != p.ReadLat || cfg.PMWriteInterval != p.WriteInterval {
			t.Fatalf("%s: preset not applied", p.Name)
		}
		if p.ReadLat <= 0 || p.WriteLat <= 0 {
			t.Fatalf("%s: degenerate latencies", p.Name)
		}
	}
	// CXL-PMem (Optane) must be the slowest write path.
	if presets[3].WriteInterval <= presets[0].WriteInterval {
		t.Fatal("CXL-PMem should have the narrowest write bandwidth")
	}
}

func TestHWCostMatchesPaper(t *testing.T) {
	res := HWCost(8, 2)
	if got := res.BytesPerCore["lightwsp"]; got != 0.5 {
		t.Fatalf("lightwsp cost = %g B/core, want 0.5 (§V-G4)", got)
	}
	if got := res.BytesPerCore["ppa"]; got != 337 {
		t.Fatalf("ppa cost = %g, want 337", got)
	}
	if got := res.BytesPerCore["capri"]; got != 54*1024 {
		t.Fatalf("capri cost = %g, want 54 KiB", got)
	}
	if !strings.Contains(res.String(), "lightwsp") {
		t.Fatal("table missing rows")
	}
}

func TestRecoverySweepSmall(t *testing.T) {
	res, err := RecoverySweep(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified != res.Injections || res.Verified == 0 {
		t.Fatalf("verified %d of %d injections", res.Verified, res.Injections)
	}
}

func TestAblationLRPOShape(t *testing.T) {
	r := NewRunner()
	res, err := AblationLRPO(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Geo[0] <= res.Geo[1] {
		t.Fatalf("naive sfence (%.3f) must be slower than LRPO (%.3f)", res.Geo[0], res.Geo[1])
	}
}

func TestOverflowRateSubset(t *testing.T) {
	r := NewRunner()
	p, _ := workload.ByName(workload.WHISPER, "tatp")
	rate, err := overflowRate(r, []workload.Profile{p}, func(c *machine.Config) {})
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0 {
		t.Fatalf("overflow rate = %f", rate)
	}
}

func TestAdversarialSnoopingRow(t *testing.T) {
	rates, conflicts, err := adversarialRow([]mem.VictimPolicy{mem.FullVictim, mem.StaleLoad})
	if err != nil {
		t.Fatal(err)
	}
	if conflicts == 0 {
		t.Fatal("adversarial pattern provoked no buffer conflicts")
	}
	if rates[1] <= rates[0] {
		t.Fatalf("stale-load mode (%.2f%%) not worse than snooping (%.2f%%)", rates[1], rates[0])
	}
}

// TestRegistryDescsMatchExperimentsDoc: each registry description, which
// GET /v1/experiments serves, is its experiment's title in EXPERIMENTS.md —
// the text after the dash of its heading, or an ablation's bold label.
func TestRegistryDescsMatchExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(string(doc), "\n") {
		lines[l] = true
	}
	// The line each experiment's title sits on, with %s for the title.
	title := map[string]string{
		"tab2":              "## Table II — %s",
		"regions":           "## §V-G3 — %s",
		"hwcost":            "## §V-G4 — %s",
		"recovery":          "## §III-E / §IV-F — %s",
		"ablation-lrpo":     "**%s** (the §III-B strawman):",
		"ablation-compiler": "**%s** (§IV-A):",
	}
	for _, e := range Registry() {
		format, ok := title[e.Name]
		if n, isFig := strings.CutPrefix(e.Name, "fig"); isFig {
			format, ok = "## Figure "+n+" — %s", true
		}
		if !ok {
			t.Errorf("%s: no EXPERIMENTS.md title line known", e.Name)
			continue
		}
		if want := fmt.Sprintf(format, e.Desc); !lines[want] {
			t.Errorf("%s: EXPERIMENTS.md has no line %q", e.Name, want)
		}
	}
}
