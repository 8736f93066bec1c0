package hostfs

import (
	"bytes"
	"encoding/json"
	"errors"
	iofs "io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestSealRoundTrip(t *testing.T) {
	payload := []byte(`{"hello":"world","n":42}`)
	sealed := Seal(payload)
	got, err := Unseal(sealed)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

func TestSealDetectsCorruption(t *testing.T) {
	payload := []byte(`{"value":123456}`)
	sealed := Seal(payload)

	// A digit flip deep in the payload still parses as JSON but must fail
	// the seal — this is the corruption class the envelope exists for.
	flipped := append([]byte(nil), sealed...)
	i := bytes.LastIndexByte(flipped, '3')
	flipped[i] = '7'
	var v map[string]any
	if json.Unmarshal(flipped[bytes.IndexByte(flipped, '\n')+1:], &v) != nil {
		t.Fatal("test setup: flipped payload should still parse as JSON")
	}
	if _, err := Unseal(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload: got %v, want ErrCorrupt", err)
	}

	// Truncation (torn write) fails the length check.
	if _, err := Unseal(sealed[:len(sealed)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: got %v, want ErrCorrupt", err)
	}

	// A pre-seal legacy file is not corrupt, just unsealed.
	if _, err := Unseal(payload); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("legacy file: got %v, want ErrNotSealed", err)
	}

	// verify=false is the sabotage hatch: corruption sails through.
	if got, err := UnsealPayload(flipped, false); err != nil || bytes.Equal(got, payload) {
		t.Fatalf("skip-verify should return the corrupt payload: %q, %v", got, err)
	}
}

func TestSealLineRoundTripAndCorruption(t *testing.T) {
	rec := []byte(`{"n":3,"op":"advance","target":1200}`)
	line := SealLine(rec)
	got, err := UnsealLine(line, true)
	if err != nil || !bytes.Equal(got, rec) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	flipped := append([]byte(nil), line...)
	flipped[bytes.LastIndexByte(flipped, '2')] = '9'
	if _, err := UnsealLine(flipped, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped record: got %v, want ErrCorrupt", err)
	}
	if _, err := UnsealLine(rec, true); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("legacy record: got %v, want ErrNotSealed", err)
	}
	if got, err := UnsealLine(flipped, false); err != nil || bytes.Equal(got, rec) {
		t.Fatalf("skip-verify should return the corrupt record: %q, %v", got, err)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "enospc=5,eio=7,fsynclie=20,short=3,slow=2:40,torn=30"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.ENOSPCPct != 5 || p.EIOPct != 7 || p.ShortPct != 3 || p.SlowPct != 2 ||
		p.SlowMaxMs != 40 || p.FsyncLiePct != 20 || p.TornPct != 30 {
		t.Fatalf("parsed %+v", p)
	}
	back, err := ParsePlan(p.String())
	if err != nil || back != p {
		t.Fatalf("String round trip: %+v vs %+v (%v)", back, p, err)
	}
	if q, err := ParsePlan("none"); err != nil || !q.Zero() {
		t.Fatalf("none: %+v, %v", q, err)
	}
	for _, bad := range []string{"eio", "eio=101", "bogus=5", "slow=5", "keep=60,torn=60"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q): want error", bad)
		}
	}
}

func TestInjectorDeterministicAndClassified(t *testing.T) {
	plan, err := ParsePlan("enospc=20,eio=20,short=20")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 7
	run := func() []string {
		mem := NewMem(Plan{})
		in := Inject(mem, plan)
		var outcomes []string
		in.MkdirAll("d", 0o755)
		for i := 0; i < 60; i++ {
			f, err := in.CreateTemp("d", "t.tmp*")
			if err != nil {
				outcomes = append(outcomes, "create:"+errno(err))
				continue
			}
			_, werr := f.Write([]byte(`{"x":123}`))
			serr := f.Sync()
			f.Close()
			outcomes = append(outcomes, "write:"+errno(werr)+",sync:"+errno(serr))
		}
		return outcomes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
	var sawENOSPC, sawEIO, sawOK bool
	for _, o := range a {
		switch {
		case bytes.Contains([]byte(o), []byte("ENOSPC")):
			sawENOSPC = true
		case bytes.Contains([]byte(o), []byte("EIO")):
			sawEIO = true
		case o == "write:ok,sync:ok":
			sawOK = true
		}
	}
	if !sawENOSPC || !sawEIO || !sawOK {
		t.Fatalf("fault mix not exercised: %v", a[:10])
	}
}

func errno(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, syscall.ENOSPC):
		return "ENOSPC"
	case errors.Is(err, syscall.EIO):
		return "EIO"
	default:
		return "other"
	}
}

// TestMemCrashDurability is the durability contract: synced bytes survive a
// power cut, unsynced bytes do not (under the strict zero plan), and a
// rename is only durable after the parent directory syncs.
func TestMemCrashDurability(t *testing.T) {
	m := NewMem(Plan{})
	m.MkdirAll("store", 0o755)

	// Synced content + synced entry: survives.
	f, err := m.OpenFile(filepath.Join("store", "synced"), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	m.SyncDir("store")

	// Unsynced tail on the same file: appended after the sync, lost.
	f.Write([]byte("+tail"))

	// Synced content, entry never synced into the directory: lost.
	g, _ := m.OpenFile(filepath.Join("store", "orphan"), os.O_CREATE|os.O_WRONLY, 0o644)
	g.Write([]byte("content"))
	g.Sync()

	m.Crash()

	data, err := m.ReadFile(filepath.Join("store", "synced"))
	if err != nil || string(data) != "durable" {
		t.Fatalf("synced file after crash: %q, %v", data, err)
	}
	if _, err := m.ReadFile(filepath.Join("store", "orphan")); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("orphan should be gone, got %v", err)
	}
	// The old handle is dead.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stale handle write: %v", err)
	}
}

func TestMemRenameDurableOnlyAfterSyncDir(t *testing.T) {
	m := NewMem(Plan{})
	m.MkdirAll("d", 0o755)
	tmp, _ := m.CreateTemp("d", "e.tmp*")
	tmp.Write([]byte("payload"))
	tmp.Sync()
	tmp.Close()
	if err := m.Rename(tmp.Name(), filepath.Join("d", "entry")); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.ReadFile(filepath.Join("d", "entry")); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("rename without dir sync must not survive, got %v", err)
	}

	// Same sequence with the directory sync: survives.
	tmp, _ = m.CreateTemp("d", "e.tmp*")
	tmp.Write([]byte("payload"))
	tmp.Sync()
	tmp.Close()
	m.Rename(tmp.Name(), filepath.Join("d", "entry"))
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if data, err := m.ReadFile(filepath.Join("d", "entry")); err != nil || string(data) != "payload" {
		t.Fatalf("rename + dir sync must survive: %q, %v", data, err)
	}
}

func TestMemFsyncLieExposedByCrash(t *testing.T) {
	plan := Plan{Seed: 3, FsyncLiePct: 100}
	m := NewMem(plan)
	m.MkdirAll("d", 0o755)
	f, _ := m.OpenFile(filepath.Join("d", "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	f.Write([]byte("believed durable"))
	if err := f.Sync(); err != nil {
		t.Fatalf("a lying sync still reports success: %v", err)
	}
	if m.Lies() == 0 {
		t.Fatal("lie not counted")
	}
	m.Crash()
	if _, err := m.ReadFile(filepath.Join("d", "f")); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("lied-about data must not survive, got %v", err)
	}
}

func TestMemCrashFlipPolicyParsesAsJSON(t *testing.T) {
	plan := Plan{Seed: 5, FlipPct: 100}
	m := NewMem(plan)
	m.MkdirAll("d", 0o755)
	f, _ := m.OpenFile(filepath.Join("d", "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	doc := []byte(`{"values":[111,222,333,444]}`)
	f.Write(doc)
	f.Sync()
	m.SyncDir("d")
	f.Write([]byte(`{"more":[555,666]}`))
	m.Crash()
	data, err := m.ReadFile(filepath.Join("d", "f"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:len(doc)], doc) {
		t.Fatalf("durable prefix mutated: %q", data)
	}
	if bytes.Equal(data[len(doc):], []byte(`{"more":[555,666]}`)) {
		t.Fatalf("unsynced tail should be flipped: %q", data)
	}
	var v map[string]any
	if err := json.Unmarshal(data[len(doc):], &v); err != nil {
		t.Fatalf("flipped tail should still parse: %v (%q)", err, data)
	}
}

func TestWithRetryOutlastsTransients(t *testing.T) {
	plan, _ := ParsePlan("eio=40")
	plan.Seed = 9
	mem := NewMem(Plan{})
	mem.MkdirAll("d", 0o755)
	h, _ := mem.OpenFile(filepath.Join("d", "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	h.Write([]byte("x"))
	h.Sync()
	mem.SyncDir("d")

	retries := 0
	var slept []time.Duration
	fsys := WithRetry(Inject(mem, plan), RetryPolicy{
		Attempts: 8,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
		OnRetry:  func(op string, attempt int, err error) { retries++ },
	})
	for i := 0; i < 40; i++ {
		if _, err := fsys.ReadFile(filepath.Join("d", "f")); err != nil {
			t.Fatalf("read %d failed despite retry: %v", i, err)
		}
	}
	if retries == 0 {
		t.Fatal("injector never fired; plan not exercised")
	}
	for i := 1; i < len(slept); i++ {
		if slept[i] < slept[i-1] && slept[i] != slept[0] {
			// Backoff resets per op; within an op it must grow.
			continue
		}
	}

	// ENOSPC is not transient: no retries, immediate failure.
	full, _ := ParsePlan("enospc=100")
	fsys = WithRetry(Inject(mem, full), RetryPolicy{Attempts: 5, Sleep: func(time.Duration) { t.Fatal("slept on ENOSPC") }})
	if err := fsys.MkdirAll("e", 0o755); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC through retry wrapper, got %v", err)
	}
}

// TestDiskFSSatellite verifies the production implementation against a real
// temp dir: the full atomic-replace sequence (temp, write, sync, rename,
// dir sync) and SyncDir on a real directory.
func TestDiskFSSatellite(t *testing.T) {
	dir := t.TempDir()
	fsys := Disk()
	f, err := fsys.CreateTemp(dir, "e.tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	dst := filepath.Join(dir, "entry.json")
	if err := fsys.Rename(f.Name(), dst); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if data, err := fsys.ReadFile(dst); err != nil || string(data) != "x" {
		t.Fatalf("read back: %q, %v", data, err)
	}
}

// TestLinkPublishesOnce checks Link, the lease layer's publish primitive,
// on every FS implementation: the first link publishes the temp file's
// content under the new name, a second link to a taken name fails with
// fs.ErrExist and leaves the first record in place, and removing the temp
// name keeps the linked one.
func TestLinkPublishesOnce(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) (FS, string){
		"disk":   func(t *testing.T) (FS, string) { return Disk(), t.TempDir() },
		"mem":    func(*testing.T) (FS, string) { return NewMem(Plan{}), "d" },
		"inject": func(*testing.T) (FS, string) { return Inject(NewMem(Plan{}), Plan{}), "d" },
		"retry":  func(*testing.T) (FS, string) { return WithRetry(NewMem(Plan{}), RetryPolicy{}), "d" },
	} {
		t.Run(name, func(t *testing.T) {
			fsys, dir := mk(t)
			if err := fsys.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			temp := func(content string) string {
				f, err := fsys.CreateTemp(dir, ".tmp*")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte(content)); err != nil {
					t.Fatal(err)
				}
				f.Close()
				return f.Name()
			}
			dst := filepath.Join(dir, "job.lease")
			first := temp("first")
			if err := fsys.Link(first, dst); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Link(temp("second"), dst); !errors.Is(err, iofs.ErrExist) {
				t.Fatalf("link over an existing name: got %v, want fs.ErrExist", err)
			}
			if err := fsys.Remove(first); err != nil {
				t.Fatal(err)
			}
			if data, err := fsys.ReadFile(dst); err != nil || string(data) != "first" {
				t.Fatalf("linked record: %q, %v", data, err)
			}
		})
	}
}

// TestMemLinkDurableOnlyAfterSyncDir: a link is a directory entry like a
// rename, so a crash forgets it until the parent directory is synced.
func TestMemLinkDurableOnlyAfterSyncDir(t *testing.T) {
	m := NewMem(Plan{})
	m.MkdirAll("d", 0o755)
	tmp, _ := m.CreateTemp("d", ".tmp*")
	tmp.Write([]byte("payload"))
	tmp.Sync()
	tmp.Close()
	dst := filepath.Join("d", "entry")
	if err := m.Link(tmp.Name(), dst); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.ReadFile(dst); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("link without dir sync must not survive, got %v", err)
	}

	tmp, _ = m.CreateTemp("d", ".tmp*")
	tmp.Write([]byte("payload"))
	tmp.Sync()
	tmp.Close()
	m.Link(tmp.Name(), dst)
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if data, err := m.ReadFile(dst); err != nil || string(data) != "payload" {
		t.Fatalf("link + dir sync must survive: %q, %v", data, err)
	}
}
