package mem

import (
	"fmt"
	"sort"
)

// Image page geometry. Every load, store, WPQ flush and power-failure check
// goes through the image, so its layout is the simulator's hottest data
// structure: words are grouped into 512-word (4 KiB) pages backed by flat
// arrays, reached through one map lookup per page instead of one per word.
const (
	pageWords = 512
	pageShift = 9 // log2(pageWords)
	pageMask  = pageWords - 1
)

// page is one 4 KiB span of the address space plus a population count, so
// pages can be dropped from the index the moment their last word returns to
// zero (unwritten words read as zero, and sparseness keeps Clone/Equal
// proportional to the touched footprint).
type page struct {
	words   [pageWords]uint64
	nonzero int
}

// Image is a sparse, paged, word-granular memory image. The simulator keeps
// two: the architectural image (what loads observe through the cache
// hierarchy) and the PM image (what has actually persisted — the only thing
// that survives a power failure). Unwritten words read as zero.
type Image struct {
	pages map[uint64]*page
	count int // non-zero words across all pages
}

// NewImage returns an empty image.
func NewImage() *Image { return &Image{pages: map[uint64]*page{}} }

// Read returns the word at addr (8-byte aligned).
func (im *Image) Read(addr uint64) uint64 {
	if !Align8(addr) {
		panic(fmt.Sprintf("mem: unaligned read at %#x", addr))
	}
	w := addr >> 3
	pg := im.pages[w>>pageShift]
	if pg == nil {
		return 0
	}
	return pg.words[w&pageMask]
}

// Write stores a word at addr (8-byte aligned).
func (im *Image) Write(addr, val uint64) {
	if !Align8(addr) {
		panic(fmt.Sprintf("mem: unaligned write at %#x", addr))
	}
	w := addr >> 3
	pi := w >> pageShift
	pg := im.pages[pi]
	if pg == nil {
		if val == 0 {
			return // zero is the default: stay sparse
		}
		pg = &page{}
		im.pages[pi] = pg
	}
	off := w & pageMask
	old := pg.words[off]
	if old == val {
		return
	}
	pg.words[off] = val
	switch {
	case old == 0:
		pg.nonzero++
		im.count++
	case val == 0:
		pg.nonzero--
		im.count--
		if pg.nonzero == 0 {
			delete(im.pages, pi)
		}
	}
}

// Len returns the number of non-zero words.
func (im *Image) Len() int { return im.count }

// Clone returns a deep copy. Copying flat page arrays is far cheaper than
// re-inserting every word into a fresh map, which matters because the
// machine clones the PM image at construction and at every power-failure
// injection.
func (im *Image) Clone() *Image {
	c := &Image{pages: make(map[uint64]*page, len(im.pages)), count: im.count}
	for pi, pg := range im.pages {
		cp := *pg
		c.pages[pi] = &cp
	}
	return c
}

// Equal reports whether two images hold identical contents.
func (im *Image) Equal(other *Image) bool {
	if im.count != other.count || len(im.pages) != len(other.pages) {
		return false
	}
	for pi, pg := range im.pages {
		opg, ok := other.pages[pi]
		if !ok || pg.words != opg.words {
			return false
		}
	}
	return true
}

// pageIndices returns the sorted union of both images' page indices.
func pageIndices(a, b *Image) []uint64 {
	idx := make([]uint64, 0, len(a.pages)+len(b.pages))
	for pi := range a.pages {
		idx = append(idx, pi)
	}
	for pi := range b.pages {
		if _, ok := a.pages[pi]; !ok {
			idx = append(idx, pi)
		}
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	return idx
}

// Diff returns up to max human-readable differences between the images,
// for failure reports from the crash-consistency checker.
func (im *Image) Diff(other *Image, max int) []string {
	var out []string
	for _, pi := range pageIndices(im, other) {
		a, b := im.pages[pi], other.pages[pi]
		if a != nil && b != nil && a.words == b.words {
			continue
		}
		for off := uint64(0); off < pageWords; off++ {
			var x, y uint64
			if a != nil {
				x = a.words[off]
			}
			if b != nil {
				y = b.words[off]
			}
			if x != y {
				addr := ((pi << pageShift) | off) << 3
				out = append(out, fmt.Sprintf("[%#x] %#x != %#x", addr, x, y))
				if len(out) == max {
					return out
				}
			}
		}
	}
	return out
}

// Hash returns a deterministic FNV-1a fingerprint of the image's contents:
// every non-zero word folded in ascending address order. Two images hash
// equal iff they hold identical contents (modulo collisions), so harnesses
// can compare or log an image's identity — the crash fuzzer's oracle hash
// and tail keys — without retaining the image itself. perfbench's committed
// crash oracle hash and session pm_hash are this value, so a faster Hash
// must return exactly the same one.
func (im *Image) Hash() uint64 {
	idx := make([]uint64, 0, len(im.pages))
	for pi := range im.pages {
		idx = append(idx, pi)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(w uint64) {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= prime64
			w >>= 8
		}
	}
	for _, pi := range idx {
		pg := im.pages[pi]
		for off := uint64(0); off < pageWords; off++ {
			if v := pg.words[off]; v != 0 {
				word((pi<<pageShift | off) << 3) // address
				word(v)
			}
		}
	}
	return h
}

// Export serializes the image as flat (address, value) pairs — every
// non-zero word in ascending address order. The layout is canonical: two
// images export equal slices iff they hold identical contents, so a
// content-addressed snapshot store can hash the export and deduplicate.
// ImportImage is the inverse.
func (im *Image) Export() []uint64 {
	idx := make([]uint64, 0, len(im.pages))
	for pi := range im.pages {
		idx = append(idx, pi)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	out := make([]uint64, 0, 2*im.count)
	for _, pi := range idx {
		pg := im.pages[pi]
		for off := uint64(0); off < pageWords; off++ {
			if v := pg.words[off]; v != 0 {
				out = append(out, (pi<<pageShift|off)<<3, v)
			}
		}
	}
	return out
}

// ImportImage rebuilds an image from Export's pair layout. It insists on the
// canonical form — even length, 8-byte-aligned strictly ascending addresses,
// non-zero values — so a truncated or hand-mangled snapshot is rejected
// instead of silently importing as a different memory.
func ImportImage(pairs []uint64) (*Image, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("mem: import of %d values (odd; want address/value pairs)", len(pairs))
	}
	im := NewImage()
	var prev uint64
	for i := 0; i < len(pairs); i += 2 {
		addr, val := pairs[i], pairs[i+1]
		if !Align8(addr) {
			return nil, fmt.Errorf("mem: import pair %d: unaligned address %#x", i/2, addr)
		}
		if val == 0 {
			return nil, fmt.Errorf("mem: import pair %d: zero value at %#x", i/2, addr)
		}
		if i > 0 && addr <= prev {
			return nil, fmt.Errorf("mem: import pair %d: address %#x not ascending", i/2, addr)
		}
		prev = addr
		im.Write(addr, val)
	}
	return im, nil
}

// EqualRange reports whether the images agree on every word in [lo, hi).
func (im *Image) EqualRange(other *Image, lo, hi uint64) bool {
	if lo >= hi {
		return true
	}
	// Word-index range covering the addresses in [lo, hi).
	loW, hiW := (lo+7)>>3, (hi+7)>>3
	for _, pi := range pageIndices(im, other) {
		pLo, pHi := pi<<pageShift, (pi+1)<<pageShift
		if pHi <= loW || pLo >= hiW {
			continue
		}
		a, b := im.pages[pi], other.pages[pi]
		if a != nil && b != nil && a.words == b.words {
			continue
		}
		from, to := uint64(0), uint64(pageWords)
		if pLo < loW {
			from = loW - pLo
		}
		if pHi > hiW {
			to = hiW - pLo
		}
		for off := from; off < to; off++ {
			var x, y uint64
			if a != nil {
				x = a.words[off]
			}
			if b != nil {
				y = b.words[off]
			}
			if x != y {
				return false
			}
		}
	}
	return true
}
