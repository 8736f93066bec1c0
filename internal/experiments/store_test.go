package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/workload"
	"lightwsp/internal/wsperr"
)

// TestTieredStoreReadThrough proves the L1/L2 contract: an L2-only entry is
// served and promoted into L1, after which L2 can disappear entirely.
func TestTieredStoreReadThrough(t *testing.T) {
	l1 := NewBlobCache(t.TempDir())
	l2dir := t.TempDir()
	l2 := NewBlobCache(l2dir)
	ts := NewTieredStore(l1, l2)

	type doc struct {
		Name string `json:"name"`
	}
	l2.WriteJSON("aaaa", doc{Name: "shared"})

	var got doc
	if !ts.ReadJSON("aaaa", &got) || got.Name != "shared" {
		t.Fatalf("tiered read missed an L2 entry: %+v", got)
	}
	if c := ts.Counters(); c.L2Hits.Load() != 1 || c.Writebacks.Load() != 1 {
		t.Fatalf("expected one L2 hit + one writeback, got %d/%d", c.L2Hits.Load(), c.Writebacks.Load())
	}

	// The entry must now live in L1: wipe L2 and read again.
	if err := os.RemoveAll(l2dir); err != nil {
		t.Fatal(err)
	}
	got = doc{}
	if !ts.ReadJSON("aaaa", &got) || got.Name != "shared" {
		t.Fatalf("promoted entry not served from L1: %+v", got)
	}
	if c := ts.Counters(); c.L1Hits.Load() != 1 {
		t.Fatalf("expected an L1 hit after promotion, got %d", c.L1Hits.Load())
	}
}

// TestTieredStoreWriteBack proves writes land in both tiers.
func TestTieredStoreWriteBack(t *testing.T) {
	l1 := NewBlobCache(t.TempDir())
	l2 := NewBlobCache(t.TempDir())
	ts := NewTieredStore(l1, l2)

	ts.WriteJSON("bbbb", map[string]string{"k": "v"})
	var out map[string]string
	if !l1.ReadJSON("bbbb", &out) {
		t.Fatal("write did not reach L1")
	}
	out = nil
	if !l2.ReadJSON("bbbb", &out) || out["k"] != "v" {
		t.Fatal("write did not reach L2")
	}
	ts.Remove("bbbb")
	if l1.ReadJSON("bbbb", &out) || l2.ReadJSON("bbbb", &out) {
		t.Fatal("remove left an entry behind")
	}
}

// TestTieredStoreCorruptL2NotPromoted proves the integrity perimeter: a
// corrupted L2 entry fails its seal check, reads as a miss, and is never
// promoted into L1.
func TestTieredStoreCorruptL2NotPromoted(t *testing.T) {
	l1 := NewBlobCache(t.TempDir())
	l2dir := t.TempDir()
	l2 := NewBlobCache(l2dir)
	ts := NewTieredStore(l1, l2)

	l2.WriteJSON("cccc", map[string]int{"n": 7})
	// Flip a byte in the sealed payload on disk.
	p := filepath.Join(l2dir, "cccc.json")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out map[string]int
	if ts.ReadJSON("cccc", &out) {
		t.Fatal("corrupt L2 entry served as data")
	}
	if l1.ReadJSON("cccc", &out) {
		t.Fatal("corrupt L2 entry was promoted into L1")
	}
	// The corrupt entry must be quarantined on the L2 side.
	if _, err := os.Stat(filepath.Join(l2dir, quarantineDir, "cccc.json")); err != nil {
		t.Fatalf("corrupt L2 entry not quarantined: %v", err)
	}
}

// TestBlobCacheLease exercises the lease arbiter: exclusion, renewal,
// release, and breaking an expired lease.
func TestBlobCacheLease(t *testing.T) {
	c := NewBlobCache(t.TempDir())
	if !c.Claim("job", "alice", time.Minute) {
		t.Fatal("first claim failed")
	}
	if c.Claim("job", "bob", time.Minute) {
		t.Fatal("second owner claimed a held lease")
	}
	if !c.Renew("job", "alice", time.Minute) {
		t.Fatal("holder could not renew")
	}
	if c.Renew("job", "bob", time.Minute) {
		t.Fatal("non-holder renewed")
	}
	c.Release("job", "bob") // must be a no-op
	if c.Claim("job", "bob", time.Minute) {
		t.Fatal("foreign release dropped the lease")
	}
	c.Release("job", "alice")
	if !c.Claim("job", "bob", time.Minute) {
		t.Fatal("claim after release failed")
	}
}

// TestBlobCacheLeaseExpiry proves a dead holder's lease is broken by the
// next claimant once the TTL passes.
func TestBlobCacheLeaseExpiry(t *testing.T) {
	c := NewBlobCache(t.TempDir())
	if !c.Claim("job", "crashed", 10*time.Millisecond) {
		t.Fatal("claim failed")
	}
	time.Sleep(30 * time.Millisecond)
	if !c.Claim("job", "next", time.Minute) {
		t.Fatal("expired lease was not broken")
	}
	if c.Renew("job", "crashed", time.Minute) {
		t.Fatal("old holder renewed a broken lease")
	}
}

// TestBlobCacheLeaseExclusionMemFS races many claimants on one MemFS-backed
// store (O_CREATE|O_EXCL semantics) and requires exactly one winner.
func TestBlobCacheLeaseExclusionMemFS(t *testing.T) {
	c := NewBlobCacheFS("store", hostfs.NewMem(hostfs.Plan{}))
	var mu sync.Mutex
	winners := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if c.Claim("job", string(rune('a'+n)), time.Minute) {
				mu.Lock()
				winners++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if winners != 1 {
		t.Fatalf("want exactly 1 lease winner, got %d", winners)
	}
}

// TestBlobCacheRetriesTransientIO: a blob cache retries a whole-file
// operation that fails with a transient EIO, up to three attempts in all,
// and counts each retry.
func TestBlobCacheRetriesTransientIO(t *testing.T) {
	disk := hostfs.NewMem(hostfs.Plan{})
	NewBlobCacheFS("store", disk).WriteJSON("aaaa", map[string]int{"x": 1})
	read := func(eioPct, reads int) (hits int, retries uint64) {
		c := NewBlobCacheFS("store", hostfs.Inject(disk, hostfs.Plan{Seed: 1, EIOPct: eioPct}))
		counters := &StorageCounters{}
		c.SetObserver(nil, counters)
		for i := 0; i < reads; i++ {
			var out map[string]int
			if c.ReadJSON("aaaa", &out) && out["x"] == 1 {
				hits++
			}
		}
		return hits, counters.Retries.Load()
	}
	if hits, retries := read(100, 1); hits != 0 || retries != 2 {
		t.Fatalf("a read on a dead disk: %d hits, %d retries; want 0 and 2", hits, retries)
	}
	// One attempt in two fails, so a read misses only when all three do:
	// about 5 of 40, where a single attempt would miss about 20.
	if hits, retries := read(50, 40); hits < 30 || retries == 0 {
		t.Fatalf("40 reads at eio=50: %d hits, %d retries", hits, retries)
	}
}

// TestRawRoundTrip proves the peer transfer unit: ReadRaw hands back sealed
// bytes that WriteRaw on another store accepts and that read back equal.
func TestRawRoundTrip(t *testing.T) {
	src := NewBlobCache(t.TempDir())
	dst := NewBlobCache(t.TempDir())
	src.WriteJSON("dddd", map[string]string{"x": "y"})

	sealed, ok := src.ReadRaw("dddd")
	if !ok {
		t.Fatal("ReadRaw missed a present entry")
	}
	if err := dst.WriteRaw("dddd", sealed); err != nil {
		t.Fatalf("WriteRaw rejected good bytes: %v", err)
	}
	var out map[string]string
	if !dst.ReadJSON("dddd", &out) || out["x"] != "y" {
		t.Fatal("raw round trip lost the payload")
	}

	// Corrupt bytes must be rejected before they touch the store.
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-3] ^= 0x01
	if err := dst.WriteRaw("eeee", bad); err == nil {
		t.Fatal("WriteRaw accepted corrupt bytes")
	}
	if dst.ReadJSON("eeee", &out) {
		t.Fatal("rejected write still produced an entry")
	}
}

// TestCrossRunnerSingleflight is the cross-node singleflight contract at
// the Runner level: three Runners (three "nodes") sharing one L2 directory
// store resolve the same run concurrently, and exactly one simulates fresh.
func TestCrossRunnerSingleflight(t *testing.T) {
	shared := t.TempDir()
	p, ok := workload.Find("cpu2006", "fuzz-st")
	if !ok {
		t.Fatal("fuzz-st profile not found")
	}

	const nodes = 3
	runners := make([]*Runner, nodes)
	for i := range runners {
		r := NewRunner()
		r.SetStore(NewTieredStore(NewBlobCache(t.TempDir()), NewBlobCache(shared)))
		runners[i] = r
	}

	var wg sync.WaitGroup
	stats := make([]uint64, nodes)
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			st, err := r.Run(p, LightWSP(), compiler.Config{})
			if err != nil {
				t.Errorf("node %d: %v", i, err)
				return
			}
			stats[i] = st.Cycles
		}(i, r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	fresh, joins := 0, 0
	for _, r := range runners {
		c := r.Counters()
		fresh += c.Fresh
		joins += c.LeaseJoins
	}
	if fresh != 1 {
		t.Fatalf("fleet-wide fresh simulations = %d, want exactly 1 (joins=%d)", fresh, joins)
	}
	for i := 1; i < nodes; i++ {
		if stats[i] != stats[0] {
			t.Fatalf("node %d cycles %d != node 0 cycles %d", i, stats[i], stats[0])
		}
	}
}

// TestLeaseGateFailsafe proves a follower facing a wedged arbiter (lease
// can never be claimed, result never appears) eventually simulates instead
// of waiting forever.
func TestLeaseGateFailsafe(t *testing.T) {
	oldFailsafe := leaseFailsafe
	leaseFailsafe = 100 * time.Millisecond
	defer func() { leaseFailsafe = oldFailsafe }()

	s := &runnerState{disk: newDiskCache(t.TempDir())}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, joined, release, err := s.leaseGate(context.Background(), stuckLeaser{}, "k", strings.Repeat("f", 64))
		if err != nil {
			t.Errorf("leaseGate: %v", err)
			return
		}
		if joined {
			t.Error("joined a result that does not exist")
			return
		}
		release()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("leaseGate follower never failed open")
	}
}

// TestLeaseGateCanceled proves a waiting follower honors its context.
func TestLeaseGateCanceled(t *testing.T) {
	s := &runnerState{disk: newDiskCache(t.TempDir())}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, _, err := s.leaseGate(ctx, stuckLeaser{}, "k", strings.Repeat("f", 64))
	if !errors.Is(err, wsperr.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// stuckLeaser models an arbiter that always says "someone else holds it"
// while no result ever appears — an unreachable or wedged shared store.
type stuckLeaser struct{}

func (stuckLeaser) Claim(name, owner string, ttl time.Duration) bool { return false }
func (stuckLeaser) Renew(name, owner string, ttl time.Duration) bool { return false }
func (stuckLeaser) Release(name, owner string)                       {}
