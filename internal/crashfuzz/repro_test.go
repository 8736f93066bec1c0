package crashfuzz

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/machine"
	"lightwsp/internal/workload"
)

func sampleRepro() *Repro {
	return &Repro{
		SchemaVersion: ReproSchemaVersion,
		Profile:       workload.FuzzSmokeProfiles()[0],
		Scheme:        machine.Scheme{Name: "lightwsp"},
		Machine:       machine.DefaultConfig(),
		Compiler:      compiler.DefaultConfig(),
		Cuts:          Schedule{42},
		Seed:          7,
		KeyHash:       "abc",
		OracleCycles:  1000,
		OracleHash:    "0123456789abcdef",
		Diff:          []string{"PM[0x1000] = 1, want 2"},
		Note:          "test",
	}
}

func TestReproFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	want := sampleRepro()
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the repro:\n%+v\n%+v", got, want)
	}
}

func TestLoadReproRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mutate func(*Repro)) string {
		r := sampleRepro()
		mutate(r)
		path := filepath.Join(dir, name)
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := LoadRepro(write("v.json", func(r *Repro) { r.SchemaVersion = 99 })); err == nil ||
		!strings.Contains(err.Error(), "schema version") {
		t.Fatalf("wrong schema version accepted: %v", err)
	}
	if _, err := LoadRepro(write("c.json", func(r *Repro) { r.Cuts = nil })); err == nil ||
		!strings.Contains(err.Error(), "empty failure schedule") {
		t.Fatalf("empty schedule accepted: %v", err)
	}
	garbage := filepath.Join(dir, "g.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(garbage); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadRepro(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReplayReproOnHealthyTree replays a passing schedule: the repro loads,
// the embedded oracle matches, and the verdict is clean (exit-0 path of
// `lightwsp-crashfuzz -replay`).
func TestReplayReproOnHealthyTree(t *testing.T) {
	p := workload.FuzzSmokeProfiles()[0]
	mcfg, ccfg := experiments.ResolveConfigs(p, compiler.Config{})
	rt, err := experiments.BuildRuntime(p, core.Scheme(), mcfg, ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	orc, _, err := buildOracle(context.Background(), rt, maxReplayCycles, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &Repro{
		SchemaVersion: ReproSchemaVersion,
		Profile:       p,
		Scheme:        rt.Sch,
		Machine:       rt.Cfg,
		Compiler:      rt.Compiled.Config,
		Cuts:          Schedule{orc.cycles / 2},
		OracleCycles:  orc.cycles,
		OracleHash:    orc.hash,
	}
	if err := ReplayRepro(r); err != nil {
		t.Fatalf("healthy tree reported a divergence: %v", err)
	}
	// A stale oracle marks the repro as outdated, not as a divergence.
	r.OracleHash = "ffffffffffffffff"
	err = ReplayRepro(r)
	if err == nil || !strings.Contains(err.Error(), "oracle mismatch") {
		t.Fatalf("stale oracle not flagged: %v", err)
	}
}
