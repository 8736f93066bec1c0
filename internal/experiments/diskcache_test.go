package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/workload"
)

func cheapProfile(t *testing.T) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(workload.CPU2006, "hmmer")
	if !ok {
		t.Fatal("hmmer profile missing")
	}
	return p
}

func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestDiskCacheWarmStart(t *testing.T) {
	dir := t.TempDir()
	p := cheapProfile(t)

	r1 := NewRunner()
	r1.SetCacheDir(dir)
	st1, err := r1.Run(p, baseline.Baseline(), compiler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c := r1.Counters(); c.Fresh != 1 || c.DiskHits != 0 {
		t.Fatalf("cold run counters = %+v, want one fresh run", c)
	}
	if len(cacheFiles(t, dir)) != 1 {
		t.Fatal("fresh run not persisted to the cache dir")
	}

	// A second invocation (a new Runner, as a new process would build)
	// must complete with zero fresh simulations and identical stats.
	r2 := NewRunner()
	r2.SetCacheDir(dir)
	st2, err := r2.Run(p, baseline.Baseline(), compiler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c := r2.Counters(); c.Fresh != 0 || c.DiskHits != 1 {
		t.Fatalf("warm run counters = %+v, want one disk hit and no fresh runs", c)
	}
	if !reflect.DeepEqual(*st1, *st2) {
		t.Fatal("disk-cached stats differ from the fresh run")
	}
}

// TestNewRunnerIgnoresCacheDirEnv: only the -cache flag reads
// LIGHTWSP_CACHE_DIR. A Runner built in code stays cache-less even when
// the variable names a directory an earlier run filled.
func TestNewRunnerIgnoresCacheDirEnv(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("LIGHTWSP_CACHE_DIR", dir)
	p := cheapProfile(t)

	filler := NewRunner()
	filler.SetCacheDir(dir)
	if _, err := filler.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	if _, err := r.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Fresh != 1 || c.DiskHits != 0 {
		t.Fatalf("counters = %+v with the variable set, want one fresh run", c)
	}
}

func TestDiskCacheRejectsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	p := cheapProfile(t)
	r1 := NewRunner()
	r1.SetCacheDir(dir)
	if _, err := r1.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("cache files = %d, want 1", len(files))
	}
	if err := os.WriteFile(files[0], []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner()
	r2.SetCacheDir(dir)
	if _, err := r2.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	if c := r2.Counters(); c.Fresh != 1 || c.DiskHits != 0 {
		t.Fatalf("corrupt entry served from cache: %+v", c)
	}
}

func TestDiskCacheInvalidatesOldSchemaVersion(t *testing.T) {
	dir := t.TempDir()
	p := cheapProfile(t)
	r1 := NewRunner()
	r1.SetCacheDir(dir)
	if _, err := r1.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	file := cacheFiles(t, dir)[0]
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := hostfs.UnsealPayload(data, true)
	if err != nil {
		t.Fatal(err)
	}
	var e codecEnvelope
	if err := json.Unmarshal(payload, &e); err != nil {
		t.Fatal(err)
	}
	e.Version = RunCodec.Version - 1
	payload, err = json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	// Reseal: the entry must be integrity-clean so the miss is the codec's
	// version check, not the checksum.
	if err := os.WriteFile(file, hostfs.Seal(payload), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner()
	r2.SetCacheDir(dir)
	if _, err := r2.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	if c := r2.Counters(); c.Fresh != 1 || c.DiskHits != 0 {
		t.Fatalf("stale-version entry served from cache: %+v", c)
	}
}

func TestScrubRemovesStaleEntries(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, sealed bool, v any) {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if sealed {
			data = hostfs.Seal(data)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// One stale-version envelope, one unsealed entry (stale too), one
	// current run envelope and one current verdict envelope.
	write("stale.json", true, codecEnvelope{Schema: RunCodec.Schema, Version: RunCodec.Version - 1, Key: "old"})
	write("legacy.json", false, map[string]any{"schema_version": 2, "key": "older", "stats": map[string]any{}})
	write("valid.json", true, codecEnvelope{Schema: RunCodec.Schema, Version: RunCodec.Version, Key: "current"})
	write("verdict.json", true, codecEnvelope{Schema: VerdictCodec.Schema, Version: VerdictCodec.Version, Key: "v"})
	rep, err := ScrubStore(hostfs.Disk(), dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if removed := rep.Removed() + rep.Quarantined; removed != 2 {
		t.Fatalf("Scrub removed %d entries, want 2", removed)
	}
	if len(cacheFiles(t, dir)) != 2 {
		t.Fatal("valid entries removed or stale entries kept")
	}
}

func TestScrubStoreQuarantinesAndEnforcesQuota(t *testing.T) {
	fsys := hostfs.NewMem(hostfs.Plan{})
	dir := "cache"
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		t.Helper()
		f, err := fsys.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	env := func(key string) []byte {
		payload, _ := json.Marshal(codecEnvelope{Schema: SnapshotCodec.Schema, Version: SnapshotCodec.Version, Key: key})
		return hostfs.Seal(payload)
	}
	// A referenced entry, an unreferenced entry, a corrupt entry (one digit
	// flipped inside the sealed payload) and an orphaned temp file.
	write("kept.json", env("kept"))
	write("orphan.json", env("orphan"))
	corrupt := env("bad")
	for i := len(corrupt) - 1; i >= 0; i-- {
		if corrupt[i] >= '0' && corrupt[i] <= '8' {
			corrupt[i]++
			break
		}
	}
	write("bad.json", corrupt)
	write("kept.tmp123", []byte("partial"))
	counters := &StorageCounters{}
	rep, err := ScrubStore(fsys, dir, ScrubOptions{
		Referenced: map[string]bool{"kept": true},
		Counters:   counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || rep.RemovedUnreferenced != 1 || rep.RemovedTemp != 1 || rep.Kept != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if counters.ChecksumFailures.Load() != 1 || counters.Quarantined.Load() != 1 {
		t.Fatalf("counters = %+v", counters.Snapshot())
	}
	if _, err := fsys.ReadFile(filepath.Join(dir, quarantineDir, "bad.json")); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	if _, err := fsys.ReadFile(filepath.Join(dir, "kept.json")); err != nil {
		t.Fatalf("referenced entry removed: %v", err)
	}

	// Quota pressure: a tiny quota must not evict the referenced survivor.
	rep, err = ScrubStore(fsys, dir, ScrubOptions{
		Referenced: map[string]bool{"kept": true},
		QuotaBytes: 1,
		Counters:   counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedQuota != 0 || rep.Kept != 1 {
		t.Fatalf("quota evicted a referenced entry: %+v", rep)
	}

	// An unreferenced survivor under quota pressure goes.
	write("bulky.json", env("bulky"))
	rep, err = ScrubStore(fsys, dir, ScrubOptions{
		Referenced: map[string]bool{"kept": true, "bulky": true},
		QuotaBytes: 1,
		Counters:   counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != 2 {
		t.Fatalf("setup: %+v", rep)
	}
	rep, err = ScrubStore(fsys, dir, ScrubOptions{
		Referenced: map[string]bool{"kept": true},
		QuotaBytes: int64(len(env("kept"))),
		Counters:   counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedUnreferenced != 1 {
		t.Fatalf("unreferenced survivor kept: %+v", rep)
	}
}
