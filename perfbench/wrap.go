package main

import (
	iofs "io/fs"
	"log/slog"
	"sync/atomic"
	"time"

	"lightwsp/internal/experiments"
	"lightwsp/internal/hostfs"
)

// leasingStore is what the fleet's shared L2 must offer for the timing
// wrapper to stand in for it: the blob interface, the lease arbiter and
// the observer seam. experiments.BlobCache has all three.
type leasingStore interface {
	experiments.Store
	experiments.Leaser
	SetObserver(log *slog.Logger, counters *experiments.StorageCounters)
}

// timedStore times the reads and writes of an L2 store and counts lease
// claims. It implements Leaser and forwards SetObserver, so a TieredStore
// over it still arbitrates runs fleet-wide through the shared tier instead
// of falling back to each node's local lease.
type timedStore struct {
	inner                 leasingStore
	reads, writes, claims atomic.Int64
	readNS, writeNS       atomic.Int64
}

func newTimedStore(inner leasingStore) *timedStore { return &timedStore{inner: inner} }

func (s *timedStore) ReadJSON(hash string, out any) bool {
	t0 := time.Now()
	ok := s.inner.ReadJSON(hash, out)
	s.readNS.Add(int64(time.Since(t0)))
	s.reads.Add(1)
	return ok
}

func (s *timedStore) WriteJSON(hash string, v any) {
	t0 := time.Now()
	s.inner.WriteJSON(hash, v)
	s.writeNS.Add(int64(time.Since(t0)))
	s.writes.Add(1)
}

func (s *timedStore) Remove(hash string) { s.inner.Remove(hash) }

func (s *timedStore) Claim(name, owner string, ttl time.Duration) bool {
	s.claims.Add(1)
	return s.inner.Claim(name, owner, ttl)
}

func (s *timedStore) Renew(name, owner string, ttl time.Duration) bool {
	return s.inner.Renew(name, owner, ttl)
}

func (s *timedStore) Release(name, owner string) { s.inner.Release(name, owner) }

func (s *timedStore) SetObserver(log *slog.Logger, counters *experiments.StorageCounters) {
	s.inner.SetObserver(log, counters)
}

// timedFS counts and times the durability barriers (File.Sync and
// FS.SyncDir) and the bytes written through a hostfs.FS. It wraps every
// File it hands out, so a Sync on a journal handle is timed too.
type timedFS struct {
	hostfs.FS
	syncs, syncNS, written atomic.Int64
}

func newTimedFS(inner hostfs.FS) *timedFS { return &timedFS{FS: inner} }

func (f *timedFS) OpenFile(name string, flag int, perm iofs.FileMode) (hostfs.File, error) {
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: h, fs: f}, nil
}

func (f *timedFS) CreateTemp(dir, pattern string) (hostfs.File, error) {
	h, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: h, fs: f}, nil
}

func (f *timedFS) SyncDir(name string) error {
	defer f.timeSync(time.Now())
	return f.FS.SyncDir(name)
}

func (f *timedFS) timeSync(t0 time.Time) {
	f.syncNS.Add(int64(time.Since(t0)))
	f.syncs.Add(1)
}

// timedFile is a File handed out by timedFS.
type timedFile struct {
	hostfs.File
	fs *timedFS
}

func (h *timedFile) Write(p []byte) (int, error) {
	n, err := h.File.Write(p)
	h.fs.written.Add(int64(n))
	return n, err
}

func (h *timedFile) Sync() error {
	defer h.fs.timeSync(time.Now())
	return h.File.Sync()
}
