package mem

import "fmt"

// VictimPolicy selects how a set-associative cache picks an eviction victim
// when LightWSP's buffer snooping (§IV-G) reports that the default victim's
// line is still pending in the front-end buffer (a "buffer conflict").
type VictimPolicy int

const (
	// FullVictim scans every way for a conflict-free victim (default).
	FullVictim VictimPolicy = iota
	// HalfVictim scans only half the ways.
	HalfVictim
	// ZeroVictim never switches victims: a conflicting eviction waits
	// until the front-end buffer entry drains.
	ZeroVictim
	// StaleLoad disables buffer snooping entirely; the machine then
	// counts the stale loads that would corrupt the persist order
	// (evaluation mode for Figure 14).
	StaleLoad
)

func (p VictimPolicy) String() string {
	switch p {
	case FullVictim:
		return "full-victim"
	case HalfVictim:
		return "half-victim"
	case ZeroVictim:
		return "zero-victim"
	case StaleLoad:
		return "stale-load"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative write-back, write-allocate tag store. It tracks
// no data — functional values live in the architectural Image — only tags,
// dirty bits and LRU state, which is all the timing and the buffer-snooping
// logic need.
type Cache struct {
	sets  int
	ways  int
	lines []cacheLine
	clock uint64

	// Hits and Misses count lookups.
	Hits, Misses uint64
}

// NewCache builds a cache of the given total size in bytes and
// associativity, with LineSize lines.
func NewCache(sizeBytes, ways int) *Cache {
	if sizeBytes%(ways*LineSize) != 0 {
		panic(fmt.Sprintf("mem: cache size %d not divisible by %d ways of %dB lines", sizeBytes, ways, LineSize))
	}
	sets := sizeBytes / (ways * LineSize)
	return &Cache{sets: sets, ways: ways, lines: make([]cacheLine, sets*ways)}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) set(lineAddr uint64) []cacheLine {
	idx := int((lineAddr / LineSize) % uint64(c.sets))
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// Lookup probes the cache. On a hit it updates LRU state and, for a write,
// the dirty bit, and returns true.
func (c *Cache) Lookup(lineAddr uint64, write bool) bool {
	c.clock++
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].used = c.clock
			if write {
				set[i].dirty = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Contains probes without touching LRU or statistics.
func (c *Cache) Contains(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// FillResult describes the outcome of a Fill.
type FillResult struct {
	// Evicted is the line address of the displaced victim, valid only
	// when EvictedValid.
	Evicted      uint64
	EvictedValid bool
	// EvictedDirty reports whether the victim was dirty (a writeback on
	// the regular path, which LightWSP's LLC silently drops).
	EvictedDirty bool
	// Conflict reports that the default (LRU) victim was dirty and
	// conflicted with a front-end buffer entry.
	Conflict bool
	// Stalled reports that no conflict-free victim was found under the
	// policy: the fill must be retried after the buffer drains. The
	// cache state is unchanged.
	Stalled bool
	// Scanned is the number of victim candidates examined (CAM searches
	// against the front-end buffer).
	Scanned int
}

// Fill inserts lineAddr after a miss. conflicts reports whether a dirty
// victim line still has pending entries in the front-end buffer; it is only
// consulted for dirty victims (clean evictions cannot corrupt the persist
// order). The policy governs how many candidates are scanned for a
// conflict-free victim, implementing §IV-G and the Figure 13 ablation.
func (c *Cache) Fill(lineAddr uint64, write bool, policy VictimPolicy, conflicts func(lineAddr uint64) bool) FillResult {
	c.clock++
	set := c.set(lineAddr)
	// Prefer an invalid way.
	for i := range set {
		if !set[i].valid {
			set[i] = cacheLine{tag: lineAddr, valid: true, dirty: write, used: c.clock}
			return FillResult{}
		}
	}
	// Candidates in LRU order.
	order := make([]int, len(set))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && set[order[j]].used < set[order[j-1]].used; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	limit := 1
	switch policy {
	case FullVictim:
		limit = len(order)
	case HalfVictim:
		limit = (len(order) + 1) / 2
	case ZeroVictim, StaleLoad:
		limit = 1
	}
	res := FillResult{}
	for k := 0; k < limit; k++ {
		v := &set[order[k]]
		if v.dirty && policy != StaleLoad && conflicts != nil {
			res.Scanned++
			if conflicts(v.tag) {
				if k == 0 {
					res.Conflict = true
				}
				continue // try the next candidate
			}
		}
		res.Evicted, res.EvictedValid, res.EvictedDirty = v.tag, true, v.dirty
		*v = cacheLine{tag: lineAddr, valid: true, dirty: write, used: c.clock}
		return res
	}
	// Every scanned candidate conflicted: the eviction must wait.
	res.Conflict = true
	res.Stalled = true
	return res
}

// InvalidateAll clears the cache (used at recovery: volatile state is lost).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
}

// DRAMCache models the off-chip direct-mapped DRAM cache that fronts PM in
// Optane's memory mode (Table I: 4 GB, direct-mapped, managed by the MC).
// Tags are kept sparsely; untouched indices miss. The DRAM cache is a
// memory-side cache: it is volatile and, under LightWSP, never writes back
// to PM (dirty evictions are dropped; the persist path is the only way data
// reaches PM).
type DRAMCache struct {
	numLines uint64
	tags     map[uint64]uint64 // index -> line address currently cached

	Hits, Misses uint64
}

// NewDRAMCache builds a DRAM cache of the given size in bytes.
func NewDRAMCache(sizeBytes uint64) *DRAMCache {
	return &DRAMCache{numLines: sizeBytes / LineSize, tags: map[uint64]uint64{}}
}

// Access probes the DRAM cache and fills on a miss (direct-mapped, so the
// previous occupant of the index is displaced). Returns hit.
func (d *DRAMCache) Access(lineAddr uint64) bool {
	idx := (lineAddr / LineSize) % d.numLines
	if tag, ok := d.tags[idx]; ok && tag == lineAddr {
		d.Hits++
		return true
	}
	d.Misses++
	d.tags[idx] = lineAddr
	return false
}

// InvalidateAll clears the DRAM cache (power failure: DRAM contents are
// volatile).
func (d *DRAMCache) InvalidateAll() { d.tags = map[uint64]uint64{} }
