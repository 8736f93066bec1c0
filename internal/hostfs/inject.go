package hostfs

import (
	"fmt"
	iofs "io/fs"
	"sync/atomic"
	"syscall"
	"time"
)

// FaultError is an injected host-filesystem failure. Err is the errno the
// real syscall would have produced (syscall.ENOSPC, syscall.EIO), so
// callers classify injected and real failures identically with errors.Is.
type FaultError struct {
	Op   string
	Path string
	Err  error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("hostfs: injected %v: %s %s", e.Err, e.Op, e.Path)
}

func (e *FaultError) Unwrap() error { return e.Err }

// Operation salts: each operation kind hashes its decisions independently.
const (
	opRead uint64 = iota + 1
	opCreate
	opWrite
	opSync
	opRename
	opRemove
	opMkdir
	opTruncate
	opSyncDir
	opLink
)

// Injector wraps an FS and injects the plan's operation-level faults:
// ENOSPC on the write path, EIO anywhere, short (torn) file writes, and
// latency. Every decision hashes (seed, op kind, decision counter), so a
// run under a given plan replays identically. Decisions re-roll per call:
// an injected EIO is transient, which is what makes bounded-backoff retry
// (WithRetry) a meaningful defense to fuzz.
type Injector struct {
	inner FS
	plan  Plan
	nonce atomic.Uint64

	// Sleep, when non-nil, replaces time.Sleep for injected latency
	// (campaigns pass a no-op to keep wall time down while still
	// exercising the slow path's decision points).
	Sleep func(time.Duration)
}

// Inject wraps inner with the plan's operation-level fault dimensions.
func Inject(inner FS, plan Plan) *Injector {
	return &Injector{inner: inner, plan: plan}
}

// decide rolls one hashed percentage decision, advancing the counter.
func (in *Injector) decide(op uint64, pct int) (uint64, bool) {
	n := in.nonce.Add(1)
	if pct <= 0 {
		return n, false
	}
	h := mix(uint64(in.plan.Seed), op, n)
	return n, h%100 < uint64(pct)
}

func (in *Injector) maybeSlow(op uint64) {
	if _, hit := in.decide(op, in.plan.SlowPct); !hit {
		return
	}
	d := time.Duration(1+mix(uint64(in.plan.Seed), op, in.nonce.Load())%uint64(max(in.plan.SlowMaxMs, 1))) * time.Millisecond
	if in.Sleep != nil {
		in.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (in *Injector) enospc(op uint64, name, what string) error {
	if _, hit := in.decide(op, in.plan.ENOSPCPct); hit {
		return &FaultError{Op: what, Path: name, Err: syscall.ENOSPC}
	}
	return nil
}

func (in *Injector) eio(op uint64, name, what string) error {
	if _, hit := in.decide(op, in.plan.EIOPct); hit {
		return &FaultError{Op: what, Path: name, Err: syscall.EIO}
	}
	return nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	in.maybeSlow(opRead)
	if err := in.eio(opRead, name, "read"); err != nil {
		return nil, err
	}
	return in.inner.ReadFile(name)
}

func (in *Injector) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	in.maybeSlow(opCreate)
	if flag&(syscall.O_CREAT|syscall.O_WRONLY|syscall.O_RDWR) != 0 {
		if err := in.enospc(opCreate, name, "open"); err != nil {
			return nil, err
		}
	}
	if err := in.eio(opCreate, name, "open"); err != nil {
		return nil, err
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, inner: f}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	in.maybeSlow(opCreate)
	if err := in.enospc(opCreate, dir, "createtemp"); err != nil {
		return nil, err
	}
	if err := in.eio(opCreate, dir, "createtemp"); err != nil {
		return nil, err
	}
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, inner: f}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	in.maybeSlow(opRename)
	if err := in.enospc(opRename, newpath, "rename"); err != nil {
		return err
	}
	if err := in.eio(opRename, newpath, "rename"); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Link(oldname, newname string) error {
	in.maybeSlow(opLink)
	if err := in.enospc(opLink, newname, "link"); err != nil {
		return err
	}
	if err := in.eio(opLink, newname, "link"); err != nil {
		return err
	}
	return in.inner.Link(oldname, newname)
}

func (in *Injector) Remove(name string) error {
	if err := in.eio(opRemove, name, "remove"); err != nil {
		return err
	}
	return in.inner.Remove(name)
}

func (in *Injector) RemoveAll(path string) error {
	if err := in.eio(opRemove, path, "removeall"); err != nil {
		return err
	}
	return in.inner.RemoveAll(path)
}

func (in *Injector) MkdirAll(path string, perm iofs.FileMode) error {
	if err := in.enospc(opMkdir, path, "mkdir"); err != nil {
		return err
	}
	return in.inner.MkdirAll(path, perm)
}

// ReadDir and Stat are metadata reads: left clean so listing a store stays
// reliable — the interesting faults are on the data path.
func (in *Injector) ReadDir(name string) ([]iofs.DirEntry, error) { return in.inner.ReadDir(name) }

func (in *Injector) Stat(name string) (iofs.FileInfo, error) { return in.inner.Stat(name) }

func (in *Injector) Truncate(name string, size int64) error {
	if err := in.eio(opTruncate, name, "truncate"); err != nil {
		return err
	}
	return in.inner.Truncate(name, size)
}

func (in *Injector) SyncDir(name string) error {
	in.maybeSlow(opSyncDir)
	if err := in.eio(opSyncDir, name, "syncdir"); err != nil {
		return err
	}
	return in.inner.SyncDir(name)
}

// injFile injects write-path faults on one handle. A short write persists
// a hashed prefix to the inner file before failing — the torn write a
// checksum must catch if the caller trusts the file later.
type injFile struct {
	in    *Injector
	inner File
}

func (f *injFile) Name() string { return f.inner.Name() }

func (f *injFile) Write(p []byte) (int, error) {
	f.in.maybeSlow(opWrite)
	if err := f.in.enospc(opWrite, f.inner.Name(), "write"); err != nil {
		return 0, err
	}
	if err := f.in.eio(opWrite, f.inner.Name(), "write"); err != nil {
		return 0, err
	}
	if n, hit := f.in.decide(opWrite, f.in.plan.ShortPct); hit && len(p) > 0 {
		keep := int(mix(uint64(f.in.plan.Seed), opWrite, n, 7) % uint64(len(p)))
		wrote, _ := f.inner.Write(p[:keep])
		return wrote, &FaultError{Op: "write", Path: f.inner.Name(), Err: syscall.EIO}
	}
	return f.inner.Write(p)
}

func (f *injFile) Sync() error {
	f.in.maybeSlow(opSync)
	if err := f.in.eio(opSync, f.inner.Name(), "sync"); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *injFile) Close() error { return f.inner.Close() }
