// Package hostfs abstracts the host filesystem operations the durable layer
// depends on — blob-cache writes, the session write-ahead journal, result
// caches — behind a small injectable interface, so the exact failure modes a
// hostile disk exhibits (ENOSPC, EIO, torn writes, fsync lies followed by a
// power cut, slow I/O) can be injected deterministically in tests and fuzz
// campaigns. The package also owns the storage integrity envelope: every
// durable artifact is sealed with a CRC-32C + length header (Seal/SealLine)
// so corruption is detected, quarantined and healed instead of silently
// trusted.
//
// Three implementations of FS exist:
//
//   - Disk() — the real host filesystem (os.*), used in production.
//   - NewMem(plan) — an in-memory filesystem with an explicit durability
//     model: data is durable only after an honest fsync, directory entries
//     only after a parent-directory sync, and Crash() discards everything
//     else (or worse: a seeded policy lets unsynced tails survive torn or
//     bit-flipped, modeling firmware that acknowledged writes it lost).
//   - Inject(inner, plan) — a wrapper that injects operation-level faults
//     (ENOSPC, EIO, short writes, latency) with seed-hashed decisions, in
//     the style of internal/faults.
//
// WithRetry composes over any of them, retrying transient failures with
// bounded backoff. The durable stores' constructors apply it to whatever FS
// they are given, so production, the diskfuzz campaign and tests all run
// the same stack.
package hostfs

import (
	"io"
	iofs "io/fs"
	"os"
)

// File is the write-side file handle the durable layer needs: sequential
// writes, an explicit durability barrier (Sync), and Close. Reads go through
// FS.ReadFile — every durable artifact is read whole.
type File interface {
	// Name returns the path the handle was opened with.
	Name() string
	io.Writer
	// Sync flushes the file's content to stable storage. A lying device
	// (modeled by MemFS fault plans) may return nil without persisting.
	Sync() error
	Close() error
}

// FS is the host-filesystem surface the durable layer is written against.
// Implementations must be safe for concurrent use.
type FS interface {
	ReadFile(name string) ([]byte, error)
	OpenFile(name string, flag int, perm iofs.FileMode) (File, error)
	// CreateTemp creates a new unique file in dir from pattern (a single
	// '*' is replaced by a unique suffix), like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	// Link makes newname a hard link to oldname. It fails, with an error
	// satisfying errors.Is(err, fs.ErrExist), when newname already exists,
	// so a record written to a temp file and linked into place is
	// published whole or not at all, and only once.
	Link(oldname, newname string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm iofs.FileMode) error
	ReadDir(name string) ([]iofs.DirEntry, error)
	Stat(name string) (iofs.FileInfo, error)
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself, making its entries (creates,
	// renames, removes) durable. Atomic-replace writers must call it after
	// rename or a power cut can lose the entry despite a synced file.
	SyncDir(name string) error
}

// osFS is the production implementation: straight delegation to the os
// package.
type osFS struct{}

// Disk returns the real host filesystem.
func Disk() FS { return osFS{} }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Link(oldname, newname string) error { return os.Link(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (osFS) MkdirAll(path string, perm iofs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]iofs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Stat(name string) (iofs.FileInfo, error) { return os.Stat(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
