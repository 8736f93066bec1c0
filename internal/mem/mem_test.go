package mem

import (
	"testing"
	"testing/quick"
)

func TestImageReadWrite(t *testing.T) {
	im := NewImage()
	if im.Read(0x1000) != 0 {
		t.Fatal("unwritten word must read zero")
	}
	im.Write(0x1000, 42)
	if im.Read(0x1000) != 42 {
		t.Fatal("read after write")
	}
	im.Write(0x1000, 0)
	if im.Read(0x1000) != 0 || im.Len() != 0 {
		t.Fatal("zero write must keep the image sparse")
	}
}

func TestImageAlignmentPanics(t *testing.T) {
	im := NewImage()
	for _, f := range []func(){
		func() { im.Read(0x1001) },
		func() { im.Write(0x1004, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unaligned access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestImageCloneEqualDiff(t *testing.T) {
	a := NewImage()
	a.Write(8, 1)
	a.Write(16, 2)
	b := a.Clone()
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("clone must equal original")
	}
	b.Write(16, 3)
	if a.Equal(b) {
		t.Fatal("diverged images compare equal")
	}
	d := a.Diff(b, 10)
	if len(d) != 1 {
		t.Fatalf("Diff = %v, want one entry", d)
	}
	b.Write(24, 9)
	if len(a.Diff(b, 1)) != 1 {
		t.Fatal("Diff must honor max")
	}
}

func TestImagePageReclamation(t *testing.T) {
	im := NewImage()
	// Fill one page (addresses 0..4 KiB) and its neighbour, then zero the
	// first page word by word: its backing page must be dropped so sparse
	// images stay proportional to their live footprint.
	for a := uint64(0); a < 2*pageWords*WordSize; a += WordSize {
		im.Write(a, a+1)
	}
	for a := uint64(0); a < pageWords*WordSize; a += WordSize {
		im.Write(a, 0)
	}
	if im.Len() != pageWords {
		t.Fatalf("Len = %d, want %d", im.Len(), pageWords)
	}
	if len(im.pages) != 1 {
		t.Fatalf("zeroed page not reclaimed: %d pages", len(im.pages))
	}
}

func TestImagePageBoundary(t *testing.T) {
	im := NewImage()
	// The last word of one page and the first of the next must not alias.
	lastA := uint64(pageWords-1) * WordSize
	firstB := uint64(pageWords) * WordSize
	im.Write(lastA, 11)
	im.Write(firstB, 22)
	if im.Read(lastA) != 11 || im.Read(firstB) != 22 {
		t.Fatalf("page-boundary words alias: %d %d", im.Read(lastA), im.Read(firstB))
	}
	if im.Len() != 2 {
		t.Fatalf("Len = %d, want 2", im.Len())
	}
	other := NewImage()
	other.Write(lastA, 11)
	if im.EqualRange(other, 0, firstB) != true {
		t.Fatal("EqualRange must exclude the first word of the next page")
	}
	if im.EqualRange(other, 0, firstB+WordSize) {
		t.Fatal("EqualRange must include words up to hi")
	}
}

func TestImageEqualRange(t *testing.T) {
	a, b := NewImage(), NewImage()
	a.Write(0x100, 7)
	b.Write(0x100, 7)
	a.Write(0x8000, 1)
	b.Write(0x8000, 2)
	if !a.EqualRange(b, 0, 0x1000) {
		t.Fatal("ranges agree below 0x1000")
	}
	if a.EqualRange(b, 0, 0x10000) {
		t.Fatal("ranges disagree at 0x8000")
	}
}

func TestImageProperties(t *testing.T) {
	roundTrip := func(addr uint32, val uint64) bool {
		im := NewImage()
		a := uint64(addr) &^ 7
		im.Write(a, val)
		return im.Read(a) == val
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
}

func TestLayoutDisjoint(t *testing.T) {
	// Checkpoint arrays, stacks and undo logs must not overlap.
	if CkptArrayBase+MaxThreads*CkptStride > PMSize {
		t.Error("checkpoint arrays exceed PM")
	}
	if StackRegionBase+MaxThreads*StackSize > CkptArrayBase {
		t.Error("stacks overlap checkpoint arrays")
	}
	if UndoLogBase+8*UndoLogSize > StackRegionBase {
		t.Error("undo logs overlap stacks")
	}
	if CkptAddr(0, CkptSlots-1) >= CkptAddr(1, 0) {
		t.Error("checkpoint arrays overlap across threads")
	}
	if StackTop(0) >= StackRegionBase+StackSize {
		t.Error("stack top outside its reservation")
	}
	if StackTop(1)-StackTop(0) != StackSize {
		t.Error("stack stride wrong")
	}
}

func TestCkptAddrBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range checkpoint slot did not panic")
		}
	}()
	CkptAddr(0, CkptSlots)
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Fatalf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	prop := func(a uint64) bool {
		l := LineAddr(a)
		return l%LineSize == 0 && a-l < LineSize
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(4096, 4) // 16 sets
	a := uint64(0x10000)
	if c.Lookup(a, false) {
		t.Fatal("cold cache hit")
	}
	c.Fill(a, false, FullVictim, nil)
	if !c.Lookup(a, false) {
		t.Fatal("miss after fill")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2*LineSize*2, 2) // 2 sets, 2 ways
	// Three lines mapping to the same set (stride = sets*LineSize).
	stride := uint64(c.Sets() * LineSize)
	a, b, d := uint64(0), stride, 2*stride
	c.Fill(a, false, FullVictim, nil)
	c.Fill(b, false, FullVictim, nil)
	c.Lookup(a, false) // make a most-recent
	res := c.Fill(d, false, FullVictim, nil)
	if !res.EvictedValid || res.Evicted != b {
		t.Fatalf("evicted %#x, want %#x (LRU)", res.Evicted, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := NewCache(LineSize*2, 2) // 1 set, 2 ways
	c.Fill(0, true, FullVictim, nil)
	c.Fill(LineSize*1*uint64(c.Sets()), false, FullVictim, nil)
	res := c.Fill(LineSize*2*uint64(c.Sets()), false, FullVictim, nil)
	if !res.EvictedValid || !res.EvictedDirty {
		t.Fatalf("dirty LRU victim not reported: %+v", res)
	}
}

func TestVictimPolicyFull(t *testing.T) {
	c := NewCache(LineSize*4, 4) // 1 set, 4 ways
	stride := uint64(c.Sets() * LineSize)
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*stride, true, FullVictim, nil) // all dirty
	}
	// LRU victim (line 0) conflicts; line at stride does not.
	conflicts := func(line uint64) bool { return line == 0 }
	res := c.Fill(4*stride, false, FullVictim, conflicts)
	if res.Stalled {
		t.Fatal("full-victim must find the conflict-free way")
	}
	if !res.Conflict {
		t.Fatal("conflict on the default victim must be reported")
	}
	if res.Evicted != stride {
		t.Fatalf("evicted %#x, want %#x", res.Evicted, stride)
	}
	if res.Scanned < 2 {
		t.Fatalf("scanned = %d, want >= 2", res.Scanned)
	}
}

func TestVictimPolicyZeroStalls(t *testing.T) {
	c := NewCache(LineSize*2, 2)
	stride := uint64(c.Sets() * LineSize)
	c.Fill(0, true, ZeroVictim, nil)
	c.Fill(stride, true, ZeroVictim, nil)
	all := func(uint64) bool { return true }
	res := c.Fill(2*stride, false, ZeroVictim, all)
	if !res.Stalled || !res.Conflict {
		t.Fatalf("zero-victim with conflicting LRU must stall: %+v", res)
	}
	if !c.Contains(0) || !c.Contains(stride) {
		t.Fatal("stalled fill must not modify the cache")
	}
}

func TestVictimPolicyHalfLimitsScan(t *testing.T) {
	c := NewCache(LineSize*8, 8)
	stride := uint64(c.Sets() * LineSize)
	for i := uint64(0); i < 8; i++ {
		c.Fill(i*stride, true, HalfVictim, nil)
	}
	all := func(uint64) bool { return true }
	res := c.Fill(9*stride, false, HalfVictim, all)
	if !res.Stalled {
		t.Fatal("all-conflicting set must stall")
	}
	if res.Scanned != 4 {
		t.Fatalf("half-victim scanned %d ways, want 4", res.Scanned)
	}
}

func TestStaleLoadSkipsSnooping(t *testing.T) {
	c := NewCache(LineSize*2, 2)
	stride := uint64(c.Sets() * LineSize)
	c.Fill(0, true, StaleLoad, nil)
	c.Fill(stride, true, StaleLoad, nil)
	all := func(uint64) bool { return true }
	res := c.Fill(2*stride, false, StaleLoad, all)
	if res.Stalled || res.Conflict || res.Scanned != 0 {
		t.Fatalf("stale-load mode must evict without snooping: %+v", res)
	}
}

func TestCleanVictimNeverSnooped(t *testing.T) {
	c := NewCache(LineSize*2, 2)
	stride := uint64(c.Sets() * LineSize)
	c.Fill(0, false, FullVictim, nil) // clean
	c.Fill(stride, false, FullVictim, nil)
	called := false
	res := c.Fill(2*stride, false, FullVictim, func(uint64) bool { called = true; return true })
	if called {
		t.Fatal("clean victims must not consult the front-end buffer")
	}
	if res.Stalled {
		t.Fatal("clean victim eviction stalled")
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	c := NewCache(4096, 4)
	c.Fill(0x100*LineSize, true, FullVictim, nil)
	c.InvalidateAll()
	if c.Contains(0x100 * LineSize) {
		t.Fatal("InvalidateAll left valid lines")
	}
}

func TestDRAMCacheDirectMapped(t *testing.T) {
	d := NewDRAMCache(1 << 20) // 16384 lines
	a := uint64(0x40)
	conflict := a + 1<<20 // same index, different tag
	if d.Access(a) {
		t.Fatal("cold hit")
	}
	if !d.Access(a) {
		t.Fatal("warm miss")
	}
	if d.Access(conflict) {
		t.Fatal("conflicting tag hit")
	}
	if d.Access(a) {
		t.Fatal("displaced line still hits")
	}
	if d.Hits != 1 || d.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d", d.Hits, d.Misses)
	}
	d.InvalidateAll()
	if d.Access(a) {
		t.Fatal("hit after invalidate")
	}
}

func TestVictimPolicyString(t *testing.T) {
	for _, p := range []VictimPolicy{FullVictim, HalfVictim, ZeroVictim, StaleLoad} {
		if p.String() == "" {
			t.Errorf("policy %d has no name", p)
		}
	}
}

func TestEqualRangeSymmetric(t *testing.T) {
	prop := func(addrs []uint16, vals []uint8) bool {
		a, b := NewImage(), NewImage()
		for i, ad := range addrs {
			addr := uint64(ad) &^ 7
			if i < len(vals) {
				a.Write(addr, uint64(vals[i]))
			}
			b.Write(addr, uint64(i))
		}
		lo, hi := uint64(0), uint64(1<<20)
		return a.EqualRange(b, lo, hi) == b.EqualRange(a, lo, hi)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneEqualProperty(t *testing.T) {
	prop := func(addrs []uint16, vals []uint16) bool {
		im := NewImage()
		for i, ad := range addrs {
			v := uint64(0)
			if i < len(vals) {
				v = uint64(vals[i])
			}
			im.Write(uint64(ad)&^7, v)
		}
		return im.Clone().Equal(im)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestImageExportImportRoundTrip(t *testing.T) {
	im := NewImage()
	// Words spread across pages, including a page-boundary straddle.
	for _, w := range []struct{ addr, val uint64 }{
		{0x0, 1}, {0x1000 - 8, 2}, {0x1000, 3}, {0x40000, 4}, {0x40008, 5},
	} {
		im.Write(w.addr, w.val)
	}
	pairs := im.Export()
	if len(pairs) != 2*im.Len() {
		t.Fatalf("export length %d, want %d", len(pairs), 2*im.Len())
	}
	back, err := ImportImage(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(im) {
		t.Fatalf("round trip diverged: %v", back.Diff(im, 5))
	}
	// Canonical form: re-export must be identical.
	again := back.Export()
	for i := range pairs {
		if again[i] != pairs[i] {
			t.Fatalf("re-export differs at %d: %#x != %#x", i, again[i], pairs[i])
		}
	}
	if empty, err := ImportImage(nil); err != nil || empty.Len() != 0 {
		t.Fatalf("empty import: %v len=%d", err, empty.Len())
	}
}

func TestImageExportImportProperty(t *testing.T) {
	prop := func(addrs []uint16, vals []uint16) bool {
		im := NewImage()
		for i, ad := range addrs {
			v := uint64(0)
			if i < len(vals) {
				v = uint64(vals[i])
			}
			im.Write(uint64(ad)&^7, v)
		}
		back, err := ImportImage(im.Export())
		return err == nil && back.Equal(im)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestImportImageRejectsNonCanonical(t *testing.T) {
	cases := map[string][]uint64{
		"odd length": {0x8, 1, 0x10},
		"unaligned":  {0x9, 1},
		"zero value": {0x8, 0},
		"descending": {0x10, 1, 0x8, 2},
		"duplicate":  {0x8, 1, 0x8, 2},
	}
	for name, pairs := range cases {
		if _, err := ImportImage(pairs); err == nil {
			t.Errorf("%s import accepted: %v", name, pairs)
		}
	}
}

// TestImageHashGolden pins Image.Hash's exact value. perfbench commits it,
// as %016x, for crash_campaign's oracle hash and fleet_rw's session
// pm_hash, so a memo or a different mix must leave every value unchanged.
func TestImageHashGolden(t *testing.T) {
	single := NewImage()
	single.Write(0x40, 0x0123456789abcdef)

	// Words on pages 0 and 2 with zero words between them, and a word on
	// page 1 written and then zeroed, which drops the page again.
	gapped := NewImage()
	gapped.Write(0x08, 1)
	gapped.Write(0x18, 0xdeadbeef)
	gapped.Write(0x2100, 42)
	gapped.Write(0x1008, 9)
	gapped.Write(0x1008, 0)

	for _, c := range []struct {
		name string
		im   *Image
		want uint64
	}{
		{"empty", NewImage(), 0xcbf29ce484222325},
		{"single", single, 0xa9c3526cb60164b5},
		{"gapped", gapped, 0x4f8f4e6d68f5b6ff},
	} {
		if got := c.im.Hash(); got != c.want {
			t.Errorf("%s: Hash() = %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
