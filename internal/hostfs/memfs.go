package hostfs

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrCrashed reports an operation on a file handle that was open when the
// simulated power cut hit: the descriptor is gone with the process.
var ErrCrashed = errors.New("hostfs: file handle lost in crash")

// MemFS is an in-memory filesystem with an explicit durability model,
// built to answer one question the real filesystem cannot answer in a unit
// test: what does the store look like after a power cut?
//
// Two namespaces exist. The current namespace is what operations see — it
// tracks every write immediately, like the page cache. The durable
// namespace is what a power cut reverts to, and it only advances at the
// barriers the durable layer is supposed to use:
//
//   - File content becomes durable when the handle's Sync returns honestly
//     (a plan's FsyncLiePct makes some Syncs lie: return nil, persist
//     nothing — the classic firmware betrayal).
//   - Directory entries (creates, links, renames, removes) become durable
//     when SyncDir runs on the parent. Rename without SyncDir = an entry a
//     crash forgets, even if the content was synced.
//   - Directories themselves (MkdirAll) are durable immediately; entry
//     durability is the interesting failure, not mkdir.
//   - RemoveAll is administrative (session deletion) and durable
//     immediately.
//
// Crash() reverts to the durable namespace and applies the plan's
// survival policy to each file's unsynced tail: revert (default), keep
// whole (KeepPct), keep a torn prefix (TornPct), or keep with one ASCII
// digit flipped (FlipPct) — corruption that still parses as JSON. Open
// handles fail every later operation with ErrCrashed.
//
// All decisions hash (seed, crash count, path), so a campaign replays
// identically from its plan.
type MemFS struct {
	mu   sync.Mutex
	plan Plan

	gen     int // crash generation; handles from older generations are dead
	crashes uint64
	lies    uint64
	tmpSeq  uint64

	files map[string]*memFile // current namespace
	dirs  map[string]bool
	dur   map[string]*memFile // durable namespace: name -> inode
}

// memFile is one inode: its current content and the prefix state an honest
// Sync last persisted.
type memFile struct {
	data    []byte
	durable []byte // content as of the last honest Sync (nil: never synced)
}

// NewMem returns an empty MemFS governed by plan's durability dimensions
// (FsyncLiePct, KeepPct, TornPct, FlipPct). Compose with Inject for the
// operation-level error dimensions.
func NewMem(plan Plan) *MemFS {
	return &MemFS{
		plan:  plan,
		files: map[string]*memFile{},
		dirs:  map[string]bool{".": true},
		dur:   map[string]*memFile{},
	}
}

// Crashes reports how many power cuts have been simulated.
func (m *MemFS) Crashes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashes
}

// Lies reports how many Syncs returned success without persisting.
func (m *MemFS) Lies() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lies
}

// Crash simulates a power cut: the current namespace is discarded in favor
// of the durable one, each surviving file's unsynced tail is resolved by
// the plan's survival policy, and every open handle dies.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashes++
	m.gen++
	files := make(map[string]*memFile, len(m.dur))
	for name, f := range m.dur {
		data := m.surviving(name, f)
		files[name] = &memFile{data: data, durable: append([]byte(nil), data...)}
	}
	m.files = files
	// Directories are modeled durable; keep them, drop everything else.
}

// surviving resolves what one file holds after the cut. The durable prefix
// (honestly synced bytes) always survives; the policy only governs the
// unsynced tail, because fsync is exactly the contract that those bytes
// reached media.
func (m *MemFS) surviving(name string, f *memFile) []byte {
	durable := f.durable
	if durable == nil {
		durable = []byte{}
	}
	if bytes.Equal(durable, f.data) {
		return append([]byte(nil), durable...)
	}
	cp := commonPrefix(durable, f.data)
	h := mix(uint64(m.plan.Seed), m.crashes, strHash(name))
	r := int(h % 100)
	switch {
	case r < m.plan.KeepPct:
		return append([]byte(nil), f.data...)
	case r < m.plan.KeepPct+m.plan.TornPct:
		keep := cp
		if tail := len(f.data) - cp; tail > 0 {
			keep += int(mix(h, 3) % uint64(tail+1))
		}
		if keep < len(durable) {
			keep = len(durable)
		}
		return append([]byte(nil), f.data[:keep]...)
	case r < m.plan.KeepPct+m.plan.TornPct+m.plan.FlipPct:
		out := append([]byte(nil), f.data...)
		flipDigit(out[cp:], mix(h, 5))
		return out
	default:
		return append([]byte(nil), durable...)
	}
}

// flipDigit replaces one hashed ASCII digit in tail with a different
// digit, so the corrupted artifact still parses as JSON — the corruption
// class only a checksum catches.
func flipDigit(tail []byte, h uint64) {
	var digits []int
	for i, c := range tail {
		if c >= '0' && c <= '9' {
			digits = append(digits, i)
		}
	}
	if len(digits) == 0 {
		return
	}
	i := digits[h%uint64(len(digits))]
	tail[i] = '0' + (tail[i]-'0'+1+byte(h>>32)%9)%10
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func clean(name string) string { return filepath.Clean(name) }

func (m *MemFS) pathErr(op, name string, err error) error {
	return &iofs.PathError{Op: op, Path: name, Err: err}
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(name)]
	if !ok {
		return nil, m.pathErr("open", name, iofs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, exists := m.files[name]
	const oCreate, oExcl, oTrunc, oAppend = os.O_CREATE, os.O_EXCL, os.O_TRUNC, os.O_APPEND
	if exists && flag&oCreate != 0 && flag&oExcl != 0 {
		return nil, m.pathErr("open", name, iofs.ErrExist)
	}
	if !exists {
		if flag&oCreate == 0 {
			return nil, m.pathErr("open", name, iofs.ErrNotExist)
		}
		if parent := filepath.Dir(name); !m.dirs[parent] {
			return nil, m.pathErr("open", name, iofs.ErrNotExist)
		}
		f = &memFile{}
		m.files[name] = f
	}
	if flag&oTrunc != 0 {
		f.data = nil
	}
	h := &memHandle{m: m, name: name, f: f, gen: m.gen}
	if flag&oAppend == 0 {
		f.data = f.data[:0]
	}
	return h, nil
}

func (m *MemFS) CreateTemp(dir, pattern string) (File, error) {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, m.pathErr("createtemp", dir, iofs.ErrNotExist)
	}
	m.tmpSeq++
	base := strings.Replace(pattern, "*", fmt.Sprintf("%d", m.tmpSeq), 1)
	if base == pattern {
		base = pattern + fmt.Sprintf("%d", m.tmpSeq)
	}
	name := filepath.Join(dir, base)
	f := &memFile{}
	m.files[name] = f
	return &memHandle{m: m, name: name, f: f, gen: m.gen}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return m.pathErr("rename", oldpath, iofs.ErrNotExist)
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	// The durable namespace is untouched: the rename is persisted only by
	// a later SyncDir on the parent directory.
	return nil
}

// Link makes newname a second name of oldname's inode: later writes through
// either name show in both. It fails with fs.ErrExist when newname exists.
// Like Rename, the new entry is durable only after a SyncDir on its parent.
func (m *MemFS) Link(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return m.pathErr("link", oldname, iofs.ErrNotExist)
	}
	if _, exists := m.files[newname]; exists {
		return m.pathErr("link", newname, iofs.ErrExist)
	}
	if !m.dirs[filepath.Dir(newname)] {
		return m.pathErr("link", newname, iofs.ErrNotExist)
	}
	m.files[newname] = f
	return nil
}

func (m *MemFS) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return m.pathErr("remove", name, iofs.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) RemoveAll(path string) error {
	path = clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.files {
		if under(name, path) {
			delete(m.files, name)
		}
	}
	for name := range m.dur {
		if under(name, path) {
			delete(m.dur, name)
		}
	}
	for name := range m.dirs {
		if name != "." && under(name, path) {
			delete(m.dirs, name)
		}
	}
	return nil
}

func under(name, root string) bool {
	return name == root || strings.HasPrefix(name, root+string(filepath.Separator))
}

func (m *MemFS) MkdirAll(path string, perm iofs.FileMode) error {
	path = clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := path; p != "." && p != string(filepath.Separator); p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

func (m *MemFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, m.pathErr("readdir", name, iofs.ErrNotExist)
	}
	seen := map[string]iofs.DirEntry{}
	for p, f := range m.files {
		if filepath.Dir(p) == name {
			base := filepath.Base(p)
			seen[base] = memInfo{name: base, size: int64(len(f.data))}
		}
	}
	for d := range m.dirs {
		if d != "." && filepath.Dir(d) == name {
			base := filepath.Base(d)
			seen[base] = memInfo{name: base, dir: true}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]iofs.DirEntry, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out, nil
}

func (m *MemFS) Stat(name string) (iofs.FileInfo, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(f.data))}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, m.pathErr("stat", name, iofs.ErrNotExist)
}

func (m *MemFS) Truncate(name string, size int64) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return m.pathErr("truncate", name, iofs.ErrNotExist)
	}
	if size < 0 || size > int64(len(f.data)) {
		return m.pathErr("truncate", name, errors.New("size out of range"))
	}
	f.data = f.data[:size]
	if len(f.durable) > int(size) {
		// An explicit truncate is a metadata+data operation the caller
		// follows with appends; model it as durable at the new length.
		f.durable = f.durable[:size]
	}
	return nil
}

// SyncDir persists dir's entry table: files currently under dir become
// reachable after a crash, entries removed or renamed away are forgotten.
// Subject to the plan's fsync lie like any other sync.
func (m *MemFS) SyncDir(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return m.pathErr("syncdir", name, iofs.ErrNotExist)
	}
	if m.lieRoll(strHash(name)) {
		return nil
	}
	for p, f := range m.files {
		if filepath.Dir(p) == name {
			m.dur[p] = f
		}
	}
	for p := range m.dur {
		if filepath.Dir(p) == name {
			if _, ok := m.files[p]; !ok {
				delete(m.dur, p)
			}
		}
	}
	return nil
}

// lieRoll decides one fsync lie; callers hold m.mu.
func (m *MemFS) lieRoll(salt uint64) bool {
	if m.plan.FsyncLiePct <= 0 {
		return false
	}
	m.tmpSeq++ // reuse as a decision nonce so repeated lies differ
	if mix(uint64(m.plan.Seed), 11, salt, m.tmpSeq)%100 < uint64(m.plan.FsyncLiePct) {
		m.lies++
		return true
	}
	return false
}

// memHandle is one open descriptor. It appends sequentially; the durable
// layer never seeks.
type memHandle struct {
	m    *MemFS
	name string
	f    *memFile
	gen  int
}

func (h *memHandle) Name() string { return h.name }

func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.gen != h.m.gen {
		return 0, h.m.pathErr("write", h.name, ErrCrashed)
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.gen != h.m.gen {
		return h.m.pathErr("sync", h.name, ErrCrashed)
	}
	if h.m.lieRoll(strHash(h.name)) {
		return nil
	}
	h.f.durable = append([]byte(nil), h.f.data...)
	return nil
}

func (h *memHandle) Close() error { return nil }

// memInfo satisfies both fs.FileInfo and fs.DirEntry for MemFS listings.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() iofs.FileMode {
	if i.dir {
		return iofs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time           { return time.Time{} }
func (i memInfo) IsDir() bool                  { return i.dir }
func (i memInfo) Sys() any                     { return nil }
func (i memInfo) Type() iofs.FileMode          { return i.Mode().Type() }
func (i memInfo) Info() (iofs.FileInfo, error) { return i, nil }
