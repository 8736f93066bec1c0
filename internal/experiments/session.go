package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
	"lightwsp/internal/probe"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// A durable session is a long-lived simulation that survives the death of
// the process hosting it. Its canonical history is a write-ahead journal:
// every operation (create, advance-to-cycle, snapshot) is appended and
// fsynced BEFORE it executes, and because the simulator is deterministic,
// replaying the journal from any durable snapshot regenerates the exact
// event stream — same sequence numbers, same cycles, same bytes — that a
// live, uninterrupted session produced.
//
// Snapshots are taken the way the paper takes them: a planned power failure.
// The machine runs the §IV-F drain protocol (PowerFailCut / PowerFailDrained
// milestones), the persisted image is cloned before recovery's undo rollback
// mutates it, and the session immediately continues on the recovered
// successor (RecoveryBoot milestone). The snapshot point is therefore a real
// crash cut: restoring later from the stored image replays the identical
// trajectory the live successor ran, and the drain/boot milestones appear in
// the stream at the same sequence numbers on both paths.
//
// Layout under a store directory:
//
//	<dir>/blobs/<hash>.json   content-addressed snapshot blobs (SnapshotCodec)
//	<dir>/<id>/journal.ndjson the session's write-ahead journal
//	<dir>/<id>/manifest.json  snapshot refs (SessionCodec; an optimization —
//	                          a missing or stale manifest costs a full
//	                          journal replay, never correctness)

// Sentinel errors for session operations.
var (
	// ErrSessionBusy reports that another operation holds the session; a
	// session executes one operation at a time.
	ErrSessionBusy = errors.New("session busy")
	// ErrSessionExists reports a Create against an existing session ID.
	ErrSessionExists = errors.New("session already exists")
	// ErrNoSession reports an operation against an unknown session ID.
	ErrNoSession = errors.New("no such session")
	// ErrSessionClosed reports an operation against a closed session handle.
	ErrSessionClosed = errors.New("session closed")
	// ErrDurabilityLost reports that a journal append failed past the retry
	// budget: the write-ahead contract cannot be honored, so the operation
	// did not run. The store flips into degraded mode (Degraded reports it,
	// RecheckDurability probes for recovery); servers should answer 503
	// with Retry-After instead of crashing or lying about durability.
	ErrDurabilityLost = errors.New("session durability lost")
)

// journalAttempts bounds appendRecord's transient-I/O retries.
const journalAttempts = 3

// sessionRetain bounds the snapshot refs a manifest keeps: enough depth that
// a truncated newest snapshot (power loss mid-write) still leaves several
// durable fallbacks, without letting blob storage grow with session length.
const sessionRetain = 4

// journalName is the per-session write-ahead journal file.
const journalName = "journal.ndjson"

// manifestName is the per-session manifest entry (a BlobCache of one).
const manifestName = "manifest"

// validSessionID constrains IDs to one path-safe filename component.
var validSessionID = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidSessionID reports whether id is usable as a session identifier: a
// single path-safe component that cannot collide with the shared blob dir.
func ValidSessionID(id string) bool {
	return id != "blobs" && validSessionID.MatchString(id)
}

// SessionSpec fixes a session's workload and snapshot policy at creation.
type SessionSpec struct {
	// Suite and App name the workload profile (case-insensitive suite).
	Suite string `json:"suite"`
	App   string `json:"app"`
	// Scheme is the persistence scheme; it must be instrumented (snapshots
	// are power failures, and only instrumented schemes can recover).
	// Empty defaults to "lightwsp".
	Scheme string `json:"scheme,omitempty"`
	// SnapshotEvery is the automatic snapshot cadence in session-total
	// cycles; 0 disables cadence snapshots (forced snapshots still work).
	SnapshotEvery uint64 `json:"snapshot_every,omitempty"`
}

// SessionEvent is one line of a session's milestone stream. Seq numbers the
// stream from 1; a resuming client sends its last-seen seq and receives
// exactly the events after it, byte-identical to an uninterrupted stream.
type SessionEvent struct {
	Seq uint64 `json:"seq"`
	// Type is "probe" (protocol milestone), "advance" (an advance record
	// completed) or "snapshot" (a durable snapshot begins at this point).
	Type string `json:"type"`
	// Kind is the probe milestone kind for "probe" events.
	Kind string `json:"kind,omitempty"`
	// Segment counts the power-failure epochs this session has run: it
	// starts at 0 and increments at every snapshot cut. Cycle is
	// segment-local (the machine restarts at cycle 0 after every cut);
	// Total is cumulative across segments.
	Segment int    `json:"segment"`
	Cycle   uint64 `json:"cycle"`
	Total   uint64 `json:"total"`
	Core    int    `json:"core,omitempty"`
	MC      int    `json:"mc,omitempty"`
	Region  uint64 `json:"region,omitempty"`
	Arg     uint64 `json:"arg,omitempty"`
	// Advance-event fields: the sub-target this record ran to, whether the
	// program has completed, the cumulative output count, and the persisted
	// image's fingerprint (the client's cheap divergence check).
	Target  uint64 `json:"target,omitempty"`
	Done    bool   `json:"done,omitempty"`
	Outputs uint64 `json:"outputs,omitempty"`
	PMHash  string `json:"pm_hash,omitempty"`
	// SnapRecord is the journal record number of a "snapshot" event.
	SnapRecord uint64 `json:"snap_record,omitempty"`
}

// journalRecord is one line of the write-ahead journal. N numbers records
// from 1; record 1 is always "create" and carries the spec, so the journal
// alone — without the manifest — fully determines the session.
type journalRecord struct {
	N  uint64 `json:"n"`
	Op string `json:"op"`
	// Spec accompanies "create".
	Spec *SessionSpec `json:"spec,omitempty"`
	// Target accompanies "advance": run until this session-total cycle.
	Target uint64 `json:"target,omitempty"`
}

// SnapshotRef is a manifest entry: where in the journal a snapshot was
// taken, what stream position its restore boots into, and the content hash
// of its blob.
type SnapshotRef struct {
	// Record is the journal record number of the snap record.
	Record uint64 `json:"record"`
	// Segment is the epoch the snapshot boots into (the cut's epoch + 1).
	Segment int `json:"segment"`
	// BootSeq is the seq of the RecoveryBoot event a restore from this
	// snapshot emits; the snapshot can serve a resume from lastSeq iff
	// BootSeq <= lastSeq+1.
	BootSeq uint64 `json:"boot_seq"`
	// Total and Outputs are the cumulative counters at the cut.
	Total   uint64 `json:"total"`
	Outputs uint64 `json:"outputs"`
	// Hash names the snapshot blob in the store's blob cache.
	Hash string `json:"hash"`
}

// sessionManifest is the SessionCodec payload.
type sessionManifest struct {
	ID        string        `json:"id"`
	Spec      SessionSpec   `json:"spec"`
	Snapshots []SnapshotRef `json:"snapshots"`
}

// snapshotPayload is the SnapshotCodec payload: everything a restore needs.
// The session ID participates so equal machine states in different sessions
// never share a blob — retention can delete a session's pruned blobs without
// a cross-session refcount.
type snapshotPayload struct {
	ID            string      `json:"id"`
	Spec          SessionSpec `json:"spec"`
	Record        uint64      `json:"record"`
	Segment       int         `json:"segment"`
	BootSeq       uint64      `json:"boot_seq"`
	Total         uint64      `json:"total"`
	Outputs       uint64      `json:"outputs"`
	RegionCounter uint64      `json:"region_counter"`
	// PM is the drained crash image in mem.Export pair layout, captured
	// before recovery's undo rollback (the rollback replays at restore).
	PM []uint64 `json:"pm"`
}

// SessionStatus is a point-in-time summary, readable while an operation is
// in flight.
type SessionStatus struct {
	ID        string      `json:"id"`
	Spec      SessionSpec `json:"spec"`
	Seq       uint64      `json:"seq"`
	Segment   int         `json:"segment"`
	Total     uint64      `json:"total"`
	Outputs   uint64      `json:"outputs"`
	Done      bool        `json:"done"`
	Records   uint64      `json:"records"`
	Snapshots int         `json:"snapshots"`
	// LastSnapshotTotal is the cumulative cycle of the newest durable
	// snapshot (0 when none): the upper bound on replay work a crash right
	// now would cost is Total - LastSnapshotTotal.
	LastSnapshotTotal uint64 `json:"last_snapshot_total,omitempty"`
	Busy              bool   `json:"busy"`
}

// SessionStore owns a directory of durable sessions plus their shared
// content-addressed snapshot blob cache.
type SessionStore struct {
	dir   string
	fs    hostfs.FS
	blobs *BlobCache
	// snaps is the store snapshot blobs go through: the local blob cache
	// alone, or (SetL2) a TieredStore that also publishes snapshots to a
	// fleet-shared backend so a session can resume on another node.
	snaps Store

	// OnSnapshot, when non-nil, observes every durable snapshot write with
	// its wall-clock cost (telemetry). Set before serving.
	OnSnapshot func(id string, wall time.Duration)

	log        *slog.Logger
	counters   *StorageCounters
	skipVerify bool
	sleep      func(time.Duration) // retry backoff sleep; replaceable in tests

	// degraded is the sticky graceful-degradation flag: set when a journal
	// append exhausts its retries, cleared by the next successful durable
	// write or RecheckDurability probe.
	degraded atomic.Bool

	mu   sync.Mutex
	open map[string]*Session
}

// OpenSessionStore opens (creating if needed) a session store rooted at dir
// on the real host filesystem.
func OpenSessionStore(dir string) (*SessionStore, error) {
	return OpenSessionStoreFS(dir, hostfs.Disk())
}

// OpenSessionStoreFS opens a session store over an injectable host
// filesystem; tests and the diskfuzz campaign pass hostfs.NewMem/Inject
// stacks, production passes hostfs.Disk(). Transient failures of whole-file
// operations are retried (hostfs.WithRetry) with the store's retry sleep,
// and each retry counts in the store's Retries; the store's blob caches
// share that one layer.
func OpenSessionStoreFS(dir string, fsys hostfs.FS) (*SessionStore, error) {
	if dir == "" {
		return nil, errors.New("experiments: empty session store dir")
	}
	st := &SessionStore{
		dir:      dir,
		counters: DefaultStorageCounters,
		sleep:    time.Sleep,
		open:     map[string]*Session{},
	}
	st.fs = hostfs.WithRetry(fsys, hostfs.RetryPolicy{
		Sleep:   func(d time.Duration) { st.sleep(d) },
		OnRetry: func(string, int, error) { st.counters.Retries.Add(1) },
	})
	if err := st.fs.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, err
	}
	st.blobs = NewBlobCacheFS(filepath.Join(dir, "blobs"), st.fs)
	st.snaps = st.blobs
	return st, nil
}

// SetL2 tiers the snapshot blob store over a shared backend: snapshots
// write through to l2 and reads fall back to it, so a session whose node
// died can resume wherever its journal is reachable, pulling snapshot
// images from the shared tier. Nil restores the local-only store. Call
// before opening sessions.
func (st *SessionStore) SetL2(l2 Store) {
	if l2 == nil {
		st.snaps = st.blobs
		return
	}
	st.snaps = NewTieredStore(st.blobs, l2)
}

// Dir returns the store's root directory.
func (st *SessionStore) Dir() string { return st.dir }

// SetObserver routes the store's failure logging and counters (shared with
// its blob cache); nil log discards, nil counters keeps the process-wide
// default. Set before opening sessions.
func (st *SessionStore) SetObserver(log *slog.Logger, counters *StorageCounters) {
	st.log = log
	if counters != nil {
		st.counters = counters
	}
	st.blobs.SetObserver(log, counters)
}

// SetInsecureSkipVerify disables integrity verification on every read path
// (snapshot blobs, manifests, journal records) — the diskfuzz sabotage
// hook. Never set in production.
func (st *SessionStore) SetInsecureSkipVerify(v bool) {
	st.skipVerify = v
	st.blobs.SetInsecureSkipVerify(v)
}

// SetRetrySleep replaces the backoff sleep between journal-append retries;
// tests and fuzz campaigns pass a no-op. Set before opening sessions.
func (st *SessionStore) SetRetrySleep(f func(time.Duration)) {
	if f != nil {
		st.sleep = f
	}
}

// Degraded reports whether the store has lost durability: a journal append
// failed past its retry budget and no durable write has succeeded since.
// Serving layers should fail session mutations fast (503 + Retry-After)
// while this holds.
func (st *SessionStore) Degraded() bool { return st.degraded.Load() }

// RecheckDurability actively probes the store's disk with a create + write
// + fsync + remove round trip and clears the degraded flag if the disk has
// recovered. It reports whether the store is healthy.
func (st *SessionStore) RecheckDurability() bool {
	name := filepath.Join(st.dir, ".durability-probe")
	f, err := st.fs.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err == nil {
		_, werr := f.Write([]byte("probe\n"))
		serr := f.Sync()
		cerr := f.Close()
		st.fs.Remove(name)
		if werr == nil && serr == nil && cerr == nil {
			st.degraded.Store(false)
			return true
		}
	}
	st.degraded.Store(true)
	return false
}

// markDegraded flips the store into degraded mode after a durability loss.
func (st *SessionStore) markDegraded(id string, cause error) {
	st.counters.DurabilityLost.Add(1)
	if !st.degraded.Swap(true) && st.log != nil {
		st.log.Error("session store degraded: durable journal appends failing",
			"dir", st.dir, "session", id, "error", cause)
	}
}

// List returns the IDs of every session present on disk, sorted.
func (st *SessionStore) List() ([]string, error) {
	ents, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, ent := range ents {
		if !ent.IsDir() || !ValidSessionID(ent.Name()) {
			continue
		}
		if _, err := st.fs.Stat(filepath.Join(st.dir, ent.Name(), journalName)); err == nil {
			ids = append(ids, ent.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Get returns an already-open session.
func (st *SessionStore) Get(id string) (*Session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.open[id]
	return s, ok
}

// Sessions returns every open session, sorted by ID.
func (st *SessionStore) Sessions() []*Session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Session, 0, len(st.open))
	for _, s := range st.open {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Create makes a new durable session: journals the create record and boots a
// fresh machine for the spec's workload under the spec's scheme.
func (st *SessionStore) Create(id string, spec SessionSpec) (*Session, error) {
	if !ValidSessionID(id) {
		return nil, fmt.Errorf("experiments: invalid session id %q", id)
	}
	if spec.Scheme == "" {
		spec.Scheme = core.Scheme().Name
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.open[id]; ok {
		return nil, fmt.Errorf("experiments: session %q: %w", id, ErrSessionExists)
	}
	s, err := newSession(st, id, spec)
	if err != nil {
		return nil, err
	}
	if err := st.fs.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	// The journal's O_EXCL create is the existence check: a directory husk
	// left by a crash between mkdir and journal create does not block the ID.
	f, err := st.fs.OpenFile(filepath.Join(s.dir, journalName), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, iofs.ErrExist) {
			return nil, fmt.Errorf("experiments: session %q: %w", id, ErrSessionExists)
		}
		return nil, err
	}
	s.journal = f
	if err := s.appendRecord(journalRecord{Op: "create", Spec: &spec}); err != nil {
		f.Close()
		return nil, err
	}
	// The create record is synced; make the journal's directory entry just
	// as durable, or a power cut could forget the session existed.
	if err := st.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: session %q: journal dir sync: %w", id, err)
	}
	sys, err := s.rt.NewSystem()
	if err != nil {
		f.Close()
		return nil, err
	}
	s.sys = sys
	s.updateStat()
	st.open[id] = s
	return s, nil
}

// Open loads a session from disk and rebuilds its live machine: restore from
// the newest usable snapshot (falling back through older ones, then a fresh
// boot, if snapshots are truncated or stale) and replay the journal's tail.
// A torn journal tail — an append cut by the very power failure the session
// is recovering from — is truncated at the last durable record. Opening an
// already-open session returns the existing handle.
func (st *SessionStore) Open(ctx context.Context, id string) (*Session, error) {
	if !ValidSessionID(id) {
		return nil, fmt.Errorf("experiments: invalid session id %q", id)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.open[id]; ok {
		return s, nil
	}
	records, f, err := openJournalFS(st, filepath.Join(st.dir, id, journalName))
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, fmt.Errorf("experiments: session %q: %w", id, ErrNoSession)
		}
		return nil, err
	}
	s, err := newSession(st, id, *records[0].Spec)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.journal = f
	s.refs = s.loadManifestRefs()
	if err := s.restore(ctx, allSeqs, records, nil, nil); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: session %q: rebuild: %w", id, err)
	}
	s.updateStat()
	st.open[id] = s
	return s, nil
}

// Remove closes and deletes a session: its directory and its snapshot blobs.
func (st *SessionStore) Remove(id string) error {
	st.mu.Lock()
	s, ok := st.open[id]
	st.mu.Unlock()
	var refs []SnapshotRef
	if ok {
		if !s.op.TryLock() {
			return fmt.Errorf("experiments: session %q: %w", id, ErrSessionBusy)
		}
		s.closed = true
		if s.journal != nil {
			s.journal.Close()
			s.journal = nil
		}
		refs = s.refs
		s.op.Unlock()
		st.mu.Lock()
		delete(st.open, id)
		st.mu.Unlock()
	} else {
		if !ValidSessionID(id) {
			return fmt.Errorf("experiments: invalid session id %q", id)
		}
		if _, err := st.fs.Stat(filepath.Join(st.dir, id, journalName)); err != nil {
			return fmt.Errorf("experiments: session %q: %w", id, ErrNoSession)
		}
		// Not open: read the manifest directly for the blob refs.
		var m sessionManifest
		if SessionCodec.Load(st.manifestCache(id), manifestName, id, &m) {
			refs = m.Snapshots
		}
	}
	for _, ref := range refs {
		st.blobs.Remove(ref.Hash)
	}
	return st.fs.RemoveAll(filepath.Join(st.dir, id))
}

// manifestCache builds the one-entry manifest store of a session directory
// with the store's filesystem and observability wired in.
func (st *SessionStore) manifestCache(id string) *BlobCache {
	man := NewBlobCacheFS(filepath.Join(st.dir, id), st.fs)
	man.SetObserver(st.log, st.counters)
	man.SetInsecureSkipVerify(st.skipVerify)
	return man
}

// Close closes every open session handle (journal file descriptors). The
// durable state is untouched; a later Open resumes each session.
func (st *SessionStore) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for id, s := range st.open {
		s.op.Lock()
		s.closed = true
		if s.journal != nil {
			s.journal.Close()
			s.journal = nil
		}
		s.op.Unlock()
		delete(st.open, id)
	}
}

// Scrub verifies, garbage-collects and self-heals the shared snapshot blob
// directory: corrupt blobs are quarantined, unrecognized entries (truncated
// writes, retired schema versions, orphaned temp files) and blobs no
// session manifest references anymore are removed. A non-zero quotaBytes
// then bounds what survives: quota pressure evicts the oldest unreferenced
// survivors first. Referenced blobs are
// never quota-evicted — the quota trims cache weight, it must not break a
// session. A blob GC'd in the window between a concurrent snapshot's blob
// write and its manifest write only costs that restore a fallback to an
// older snapshot; restores never trust a missing blob.
func (st *SessionStore) Scrub(quotaBytes int64) (ScrubReport, error) {
	ids, err := st.List()
	if err != nil {
		return ScrubReport{}, err
	}
	refs := map[string]bool{}
	for _, id := range ids {
		var m sessionManifest
		if SessionCodec.Load(st.manifestCache(id), manifestName, id, &m) {
			for _, r := range m.Snapshots {
				refs[r.Hash] = true
			}
		}
	}
	return ScrubStore(st.fs, st.blobs.Dir(), ScrubOptions{
		Referenced: refs,
		QuotaBytes: quotaBytes,
		Counters:   st.counters,
		Log:        st.log,
	})
}

// allSeqs suppresses every event: the lastSeq of a client that has seen the
// whole stream, and the sentinel internal rebuilds use.
const allSeqs = ^uint64(0)

// Session is one open durable session. All operations are serialized: a
// second operation while one runs fails fast with ErrSessionBusy.
type Session struct {
	ID   string
	Spec SessionSpec

	store *SessionStore
	dir   string
	man   *BlobCache // one-entry manifest store in the session dir
	rt    *core.Runtime

	// op guards everything below; held for the duration of one operation.
	op          sync.Mutex
	closed      bool
	corrupt     bool // in-memory state diverged from the journal (canceled mid-record)
	journal     hostfs.File
	record      uint64 // last journal record number
	lastOp      string // op of the last journal record
	sys         *machine.System
	seq         uint64 // last assigned stream seq
	segment     int
	totalBase   uint64 // cumulative cycles of finished segments
	outputsBase uint64 // cumulative outputs of finished segments
	done        bool
	refs        []SnapshotRef
	lastBootSeq uint64

	// Per-operation stream plumbing.
	emit     func(SessionEvent) error
	emitErr  error
	suppress uint64     // events with seq <= suppress are counted, not delivered
	flight   probe.Sink // raw probe firehose tap (flight recorder), may be nil

	statMu sync.Mutex
	stat   SessionStatus
}

// newSession resolves the spec (workload profile, instrumented scheme,
// Table I configuration) and builds the runtime with the session's probe
// sink bound. It does not touch disk.
func newSession(st *SessionStore, id string, spec SessionSpec) (*Session, error) {
	p, ok := workload.Find(spec.Suite, spec.App)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %s/%s", spec.Suite, spec.App)
	}
	sch, ok := SchemeByName(spec.Scheme)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scheme %q", spec.Scheme)
	}
	if !sch.Instrumented {
		return nil, fmt.Errorf("experiments: scheme %q cannot host a session: no recovery metadata to snapshot", sch.Name)
	}
	mcfg, ccfg := ResolveConfigs(p, compiler.Config{})
	s := &Session{
		ID:    id,
		Spec:  spec,
		store: st,
		dir:   filepath.Join(st.dir, id),
		man:   st.manifestCache(id),
	}
	rt, err := BuildRuntime(p, sch, mcfg, ccfg, probe.SinkFunc(s.onProbe))
	if err != nil {
		return nil, err
	}
	s.rt = rt
	return s, nil
}

// onProbe is the runtime's sink: it taps the raw firehose into the
// operation's flight recorder (if any) and numbers protocol milestones into
// the session stream.
func (s *Session) onProbe(e probe.Event) {
	if s.flight != nil {
		s.flight.Emit(e)
	}
	if !probe.MilestoneKind(e.Kind) {
		return
	}
	s.seq++
	if e.Kind == probe.RecoveryBoot {
		s.lastBootSeq = s.seq
	}
	s.deliver(SessionEvent{
		Seq: s.seq, Type: "probe", Kind: e.Kind.String(),
		Segment: s.segment, Cycle: e.Cycle, Total: s.totalBase + e.Cycle,
		Core: e.Core, MC: e.MC, Region: e.Region, Arg: e.Arg,
	})
}

func (s *Session) deliver(ev SessionEvent) {
	if ev.Seq <= s.suppress || s.emit == nil || s.emitErr != nil {
		return
	}
	if err := s.emit(ev); err != nil {
		s.emitErr = err
	}
}

// emitSynthetic numbers and delivers a non-probe stream event.
func (s *Session) emitSynthetic(ev SessionEvent) {
	s.seq++
	ev.Seq = s.seq
	s.deliver(ev)
}

// lock acquires the operation slot or fails fast.
func (s *Session) lock() error {
	if !s.op.TryLock() {
		return fmt.Errorf("experiments: session %q: %w", s.ID, ErrSessionBusy)
	}
	if s.closed {
		s.op.Unlock()
		return fmt.Errorf("experiments: session %q: %w", s.ID, ErrSessionClosed)
	}
	s.statMu.Lock()
	s.stat.Busy = true
	s.statMu.Unlock()
	return nil
}

func (s *Session) unlock() {
	s.emit, s.flight = nil, nil
	s.updateStat()
	s.statMu.Lock()
	s.stat.Busy = false
	s.statMu.Unlock()
	s.op.Unlock()
}

// updateStat refreshes the lock-free status copy; callers hold op.
func (s *Session) updateStat() {
	st := SessionStatus{
		ID: s.ID, Spec: s.Spec, Seq: s.seq, Segment: s.segment,
		Done: s.done, Records: s.record, Snapshots: len(s.refs),
	}
	if s.sys != nil {
		st.Total = s.totalBase + s.sys.Cycle()
		st.Outputs = s.outputsBase + uint64(len(s.sys.Output))
	}
	if n := len(s.refs); n > 0 {
		st.LastSnapshotTotal = s.refs[n-1].Total
	}
	s.statMu.Lock()
	busy := s.stat.Busy
	s.stat = st
	s.stat.Busy = busy
	s.statMu.Unlock()
}

// Status returns a point-in-time summary; safe to call while an operation
// is in flight (it reports the state as of the last completed operation).
func (s *Session) Status() SessionStatus {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.stat
}

// appendRecord journals rec (assigning the next record number) and fsyncs
// before the caller executes it: the write-ahead contract. The line is
// integrity-sealed (CRC-32C prefix) so a reopen can tell a torn append from
// a durable record.
//
// Transient I/O failures (EIO and friends) are retried with bounded
// backoff; between attempts the journal is reopened from disk, which
// truncates whatever partial line the failed attempt left behind. A
// failure that survives the retry budget — or one that retrying cannot fix,
// like ENOSPC — flips the store into degraded mode and surfaces as
// ErrDurabilityLost: the operation was never executed, and the caller can
// safely shed load (503 + Retry-After) until the disk recovers.
func (s *Session) appendRecord(rec journalRecord) error {
	s.record++
	rec.N = s.record
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := append(hostfs.SealLine(data), '\n')
	backoff := 2 * time.Millisecond
	var lastErr error
	for attempt := 1; attempt <= journalAttempts; attempt++ {
		if attempt > 1 {
			s.store.counters.Retries.Add(1)
			s.store.sleep(backoff)
			backoff *= 2
			if err := s.reopenForRetry(); err != nil {
				lastErr = err
				continue
			}
		}
		if _, err := s.journal.Write(line); err != nil {
			lastErr = err
			if !hostfs.Transient(err) {
				break
			}
			continue
		}
		if err := s.journal.Sync(); err != nil {
			lastErr = err
			if !hostfs.Transient(err) {
				break
			}
			continue
		}
		s.lastOp = rec.Op
		s.store.degraded.Store(false)
		return nil
	}
	s.store.markDegraded(s.ID, lastErr)
	return fmt.Errorf("experiments: session %q: journal append: %w: %w", s.ID, ErrDurabilityLost, lastErr)
}

// reopenForRetry reopens the journal from disk between append attempts —
// discarding the partial line a failed write may have left — and verifies
// the durable record count still matches what this session has appended.
func (s *Session) reopenForRetry() error {
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	records, f, err := openJournalFS(s.store, filepath.Join(s.dir, journalName))
	if err != nil {
		return err
	}
	if uint64(len(records)) != s.record-1 {
		f.Close()
		return fmt.Errorf("journal reopened with %d records, want %d", len(records), s.record-1)
	}
	s.journal = f
	return nil
}

// execAdvance runs the machine to the (already journaled) session-total
// cycle target and emits the advance event. Identical on the live and
// replay paths.
func (s *Session) execAdvance(ctx context.Context, target uint64) error {
	if !s.done && target > s.totalBase+s.sys.Cycle() {
		done, err := s.sys.RunUntilContext(ctx, target-s.totalBase)
		if err != nil {
			return err
		}
		s.done = done
	}
	s.emitSynthetic(SessionEvent{
		Type: "advance", Segment: s.segment, Cycle: s.sys.Cycle(),
		Total: s.totalBase + s.sys.Cycle(), Target: target, Done: s.done,
		Outputs: s.outputsBase + uint64(len(s.sys.Output)),
		PMHash:  fmt.Sprintf("%016x", s.sys.PM().Hash()),
	})
	return nil
}

// execSnap executes an (already journaled) snapshot record: emit the
// snapshot marker, cut power, clone the drained image, recover the
// successor, and — on the live path only — persist the blob and manifest.
// The replay path re-executes the same cut/recover so the stream and the
// machine state come out identical, but never rewrites durable state.
func (s *Session) execSnap(live bool) error {
	s.emitSynthetic(SessionEvent{
		Type: "snapshot", Segment: s.segment, Cycle: s.sys.Cycle(),
		Total: s.totalBase + s.sys.Cycle(), SnapRecord: s.record,
	})
	start := time.Now()
	rep := s.sys.PowerFail()  // emits the cut/drained milestones
	img := s.sys.PM().Clone() // before recovery's undo rollback mutates it
	s.totalBase += s.sys.Cycle()
	s.outputsBase += uint64(len(s.sys.Output))
	s.segment++
	rec, err := s.rt.Recover(s.sys.PM(), rep.RegionCounter) // emits the boot milestone
	if err != nil {
		return fmt.Errorf("experiments: session %q: snapshot recovery: %w", s.ID, err)
	}
	s.sys = rec
	if !live {
		return nil
	}
	payload := snapshotPayload{
		ID: s.ID, Spec: s.Spec, Record: s.record, Segment: s.segment,
		BootSeq: s.lastBootSeq, Total: s.totalBase, Outputs: s.outputsBase,
		RegionCounter: rep.RegionCounter, PM: img.Export(),
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	hash := keyHash(string(raw))
	SnapshotCodec.Store(s.store.snaps, hash, snapshotKey(s.ID, s.record), payload)
	s.refs = append(s.refs, SnapshotRef{
		Record: s.record, Segment: s.segment, BootSeq: s.lastBootSeq,
		Total: s.totalBase, Outputs: s.outputsBase, Hash: hash,
	})
	for len(s.refs) > sessionRetain {
		s.store.snaps.Remove(s.refs[0].Hash)
		s.refs = append(s.refs[:0:0], s.refs[1:]...)
	}
	SessionCodec.Store(s.man, manifestName, s.ID, sessionManifest{
		ID: s.ID, Spec: s.Spec, Snapshots: s.refs,
	})
	if s.store.OnSnapshot != nil {
		s.store.OnSnapshot(s.ID, time.Since(start))
	}
	return nil
}

// snapshotKey is the envelope key of one snapshot blob.
func snapshotKey(id string, record uint64) string {
	return fmt.Sprintf("session:%s#%d", id, record)
}

// Advance runs the session until session-total cycle target (or program
// completion), streaming events to emit. It splits the run into journal
// records at the spec's snapshot cadence, taking a durable snapshot at each
// cadence point. flight, when non-nil, receives the raw probe firehose for
// the operation's duration (the request's flight recorder).
//
// An advance interrupted mid-record (context cancellation) poisons the
// in-memory machine; the next operation transparently rebuilds it from
// durable state, completing the interrupted record — the journal, not the
// interruption, is canonical.
func (s *Session) Advance(ctx context.Context, target uint64, emit func(SessionEvent) error, flight probe.Sink) error {
	if err := s.lock(); err != nil {
		return err
	}
	defer s.unlock()
	if err := s.ensureLive(ctx); err != nil {
		return err
	}
	s.emit, s.flight, s.suppress, s.emitErr = emit, flight, 0, nil
	every := s.Spec.SnapshotEvery
	for {
		cur := s.totalBase + s.sys.Cycle()
		// An owed snapshot: the previous advance record landed exactly on a
		// cadence point but its snap record is not in the journal (a crash
		// fell between the two). Deriving this from the journal rather than
		// from the interrupted call keeps a resumed session's records — and
		// therefore its stream — identical to an uninterrupted one's.
		if every > 0 && !s.done && cur > 0 && cur%every == 0 && s.lastOp == "advance" {
			if err := s.appendRecord(journalRecord{Op: "snap"}); err != nil {
				s.corrupt = true
				return err
			}
			if err := s.execSnap(true); err != nil {
				s.corrupt = true
				return err
			}
			if s.emitErr != nil {
				return s.emitErr
			}
			continue
		}
		// An already-satisfied target is a silent no-op — no record, no
		// events — so re-issuing an advance after a crash cannot add records
		// an uninterrupted session never journaled.
		if s.done || target <= cur {
			return nil
		}
		stop := target
		if every > 0 {
			if next := (cur/every + 1) * every; next < stop {
				stop = next
			}
		}
		if err := s.appendRecord(journalRecord{Op: "advance", Target: stop}); err != nil {
			s.corrupt = true
			return err
		}
		if err := s.execAdvance(ctx, stop); err != nil {
			s.corrupt = true
			return err
		}
		if s.emitErr != nil {
			return s.emitErr
		}
	}
}

// ForceSnapshot takes an immediate durable snapshot (outside the cadence):
// the lossless-drain path. It reports whether a snapshot was taken — a
// session that has completed, or has not advanced since its segment began,
// has nothing new to persist.
func (s *Session) ForceSnapshot(ctx context.Context) (bool, error) {
	if err := s.lock(); err != nil {
		return false, err
	}
	defer s.unlock()
	if err := s.ensureLive(ctx); err != nil {
		return false, err
	}
	if s.done || s.sys.Cycle() == 0 {
		return false, nil
	}
	s.suppress, s.emitErr = allSeqs, nil
	if err := s.appendRecord(journalRecord{Op: "snap"}); err != nil {
		s.corrupt = true
		return false, err
	}
	if err := s.execSnap(true); err != nil {
		s.corrupt = true
		return false, err
	}
	return true, nil
}

// Resume replays the stream after lastSeq to emit: restore from the newest
// snapshot whose boot event the client has already seen (or would see next),
// then re-execute the journal's tail, suppressing everything up to lastSeq.
// The replayed bytes are identical to what an uninterrupted stream carried.
func (s *Session) Resume(ctx context.Context, lastSeq uint64, emit func(SessionEvent) error, flight probe.Sink) error {
	if err := s.lock(); err != nil {
		return err
	}
	defer s.unlock()
	if s.corrupt {
		if err := s.rebuild(ctx); err != nil {
			return err
		}
	}
	if lastSeq != allSeqs && lastSeq > s.seq {
		return fmt.Errorf("experiments: session %q: resume from seq %d, but the stream ends at %d", s.ID, lastSeq, s.seq)
	}
	preSeq := s.seq
	records, err := s.reloadJournal()
	if err != nil {
		return err
	}
	if err := s.restore(ctx, lastSeq, records, emit, flight); err != nil {
		return err
	}
	if s.seq != preSeq {
		s.corrupt = true
		return fmt.Errorf("experiments: session %q: replay diverged: seq %d, want %d", s.ID, s.seq, preSeq)
	}
	return nil
}

// ensureLive rebuilds the in-memory machine from durable state if a prior
// operation left it poisoned.
func (s *Session) ensureLive(ctx context.Context) error {
	if !s.corrupt && s.sys != nil {
		return nil
	}
	return s.rebuild(ctx)
}

// rebuild re-derives the in-memory state purely from disk: reload the
// journal (truncating any torn tail), restore from the best snapshot, and
// silently replay the tail.
func (s *Session) rebuild(ctx context.Context) error {
	records, err := s.reloadJournal()
	if err != nil {
		return err
	}
	return s.restore(ctx, allSeqs, records, nil, nil)
}

// reloadJournal reopens the journal file from disk and parses its records.
func (s *Session) reloadJournal() ([]journalRecord, error) {
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
		s.corrupt = true // until a restore completes, memory may trail disk
	}
	records, f, err := openJournalFS(s.store, filepath.Join(s.dir, journalName))
	if err != nil {
		s.corrupt = true
		return nil, fmt.Errorf("experiments: session %q: %w", s.ID, err)
	}
	s.journal = f
	return records, nil
}

// restore rebuilds machine state from durable storage and replays the
// journal, delivering events with seq > lastSeq to emit. It prefers the
// newest snapshot eligible for lastSeq (its boot event must not skip past
// the client: BootSeq <= lastSeq+1), falls back through older snapshots when
// a blob is missing, truncated or fails image validation, and finally boots
// fresh and replays the whole journal. On success the in-memory state is
// live and consistent; on error it stays poisoned for the next rebuild.
func (s *Session) restore(ctx context.Context, lastSeq uint64, records []journalRecord, emit func(SessionEvent) error, flight probe.Sink) error {
	s.corrupt = true
	s.sys, s.done = nil, false
	s.seq, s.segment, s.totalBase, s.outputsBase = 0, 0, 0, 0
	s.emit, s.flight, s.suppress, s.emitErr = emit, flight, lastSeq, nil

	start := 0 // index into records at which replay begins
	for i := len(s.refs) - 1; i >= 0 && s.sys == nil; i-- {
		ref := s.refs[i]
		if lastSeq != allSeqs && ref.BootSeq > lastSeq+1 {
			continue // would skip events the client has not seen
		}
		if ref.Record > uint64(len(records)) {
			continue // journal lost its tail; snapshot is past its end
		}
		var payload snapshotPayload
		if !SnapshotCodec.Load(s.store.snaps, ref.Hash, snapshotKey(s.ID, ref.Record), &payload) {
			continue // missing/truncated/stale blob: fall back older
		}
		img, err := mem.ImportImage(payload.PM)
		if err != nil {
			continue
		}
		if recovery.ValidateImage(s.rt.Compiled.Prog, s.rt.Cfg, s.rt.Compiled.Recipes, img) != nil {
			continue
		}
		// Commit: recovery's boot milestone must number itself BootSeq.
		s.seq = payload.BootSeq - 1
		s.segment = payload.Segment
		s.totalBase, s.outputsBase = payload.Total, payload.Outputs
		sys, err := s.rt.Recover(img, payload.RegionCounter)
		if err != nil {
			s.seq, s.segment, s.totalBase, s.outputsBase = 0, 0, 0, 0
			continue
		}
		s.sys = sys
		start = int(payload.Record) // replay records after the snap record
	}
	if s.sys == nil {
		sys, err := s.rt.NewSystem()
		if err != nil {
			return err
		}
		s.sys = sys
		start = 1 // replay records after "create"
	}
	s.record = uint64(start)
	for _, rec := range records[start:] {
		s.record = rec.N
		var err error
		switch rec.Op {
		case "advance":
			err = s.execAdvance(ctx, rec.Target)
		case "snap":
			err = s.execSnap(false)
		}
		if err != nil {
			return err
		}
		if s.emitErr != nil {
			return s.emitErr
		}
	}
	s.record = uint64(len(records))
	s.lastOp = records[len(records)-1].Op
	s.corrupt = false
	return nil
}

// loadManifestRefs reads the manifest's snapshot refs; a missing, stale or
// older-versioned manifest yields none — the session still opens, paying a
// full journal replay instead of a snapshot restore.
func (s *Session) loadManifestRefs() []SnapshotRef {
	var m sessionManifest
	if !SessionCodec.Load(s.man, manifestName, s.ID, &m) || m.ID != s.ID {
		return nil
	}
	sort.Slice(m.Snapshots, func(i, j int) bool { return m.Snapshots[i].Record < m.Snapshots[j].Record })
	return m.Snapshots
}

// openJournalFS reads and validates a journal: a prefix of records numbered
// from 1 whose first record is "create". Each line carries an integrity
// seal (CRC-32C prefix); a line with no seal is a legacy pre-seal record
// and falls back to plain JSON, so old journals replay transparently and
// their tails get sealed records appended.
//
// The first invalid line severs the journal. A torn tail — a partial line,
// or a line that fails to parse — marks where a power failure cut an
// append; a checksum mismatch marks where the disk corrupted a record in
// place. Either way nothing after the sever point can be trusted (record
// N+1 is meaningless without record N), so the severed bytes are
// quarantined to <journal>.quarantined for forensics, the journal is
// truncated at the last durable record, and the file is reopened for
// appending. The session heals by replaying the surviving prefix.
func openJournalFS(st *SessionStore, path string) ([]journalRecord, hostfs.File, error) {
	data, err := st.fs.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var records []journalRecord
	valid := 0
	var severed error
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // no newline: torn final append
		}
		line := data[off : off+nl]
		payload, uerr := hostfs.UnsealLine(line, !st.skipVerify)
		if errors.Is(uerr, hostfs.ErrNotSealed) {
			payload = line // legacy pre-seal record: plain JSON
		} else if uerr != nil {
			severed = uerr
			break
		}
		var rec journalRecord
		if json.Unmarshal(payload, &rec) != nil || rec.N != uint64(len(records)+1) || !validRecord(rec) {
			break
		}
		records = append(records, rec)
		off += nl + 1
		valid = off
	}
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("journal %s: no valid records", path)
	}
	if valid < len(data) {
		tail := data[valid:]
		if qf, qerr := st.fs.OpenFile(path+".quarantined", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); qerr == nil {
			qf.Write(tail)
			qf.Close()
		}
		st.counters.JournalTruncations.Add(1)
		if errors.Is(severed, hostfs.ErrCorrupt) {
			st.counters.ChecksumFailures.Add(1)
			st.counters.Quarantined.Add(1)
		}
		if st.log != nil {
			st.log.Warn("journal tail severed", "path", path,
				"records", len(records), "bytes", len(tail), "cause", severed)
		}
		if err := st.fs.Truncate(path, int64(valid)); err != nil {
			return nil, nil, err
		}
	}
	f, err := st.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return records, f, nil
}

func validRecord(rec journalRecord) bool {
	switch rec.Op {
	case "create":
		return rec.N == 1 && rec.Spec != nil
	case "advance", "snap":
		return rec.N > 1
	}
	return false
}
