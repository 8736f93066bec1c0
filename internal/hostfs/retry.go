package hostfs

import (
	"errors"
	iofs "io/fs"
	"syscall"
	"time"
)

// Transient reports whether err is a host-I/O failure worth retrying: the
// errnos that routinely clear on a second attempt (EIO from a glitching
// device path, EAGAIN, EINTR). ENOSPC is deliberately not transient —
// retrying a full disk burns the backoff budget for nothing; callers
// should fall through to the degradation ladder instead.
func Transient(err error) bool {
	if errors.Is(err, ErrCrashed) {
		return false
	}
	return errors.Is(err, syscall.EIO) || errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.EINTR)
}

// RetryPolicy bounds WithRetry: total attempts per operation and the base
// backoff, doubled between attempts.
type RetryPolicy struct {
	// Attempts is the total tries per operation (minimum 1; default 3).
	Attempts int
	// Backoff is the sleep before the first retry, doubled each further
	// retry (default 2ms).
	Backoff time.Duration
	// Sleep replaces time.Sleep when non-nil (tests and fuzz campaigns
	// pass a no-op).
	Sleep func(time.Duration)
	// OnRetry observes each retry (metrics hook); may be nil.
	OnRetry func(op string, attempt int, err error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 2 * time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// WithRetry wraps fs so whole operations that fail transiently are retried
// with bounded exponential backoff. Only idempotent whole-file operations
// are retried; File handles pass through unwrapped, because re-driving a
// partially applied Write is not idempotent — handle-level recovery (tear
// down, truncate, re-append) belongs to the caller, and the session
// journal implements exactly that.
func WithRetry(fsys FS, p RetryPolicy) FS {
	return &retryFS{inner: fsys, p: p.withDefaults()}
}

type retryFS struct {
	inner FS
	p     RetryPolicy
}

func (r *retryFS) do(op string, f func() error) error {
	backoff := r.p.Backoff
	for attempt := 1; ; attempt++ {
		err := f()
		if err == nil || attempt >= r.p.Attempts || !Transient(err) {
			return err
		}
		if r.p.OnRetry != nil {
			r.p.OnRetry(op, attempt, err)
		}
		r.p.Sleep(backoff)
		backoff *= 2
	}
}

func (r *retryFS) ReadFile(name string) (data []byte, err error) {
	err = r.do("read", func() error { data, err = r.inner.ReadFile(name); return err })
	return data, err
}

func (r *retryFS) OpenFile(name string, flag int, perm iofs.FileMode) (f File, err error) {
	err = r.do("open", func() error { f, err = r.inner.OpenFile(name, flag, perm); return err })
	return f, err
}

func (r *retryFS) CreateTemp(dir, pattern string) (f File, err error) {
	err = r.do("createtemp", func() error { f, err = r.inner.CreateTemp(dir, pattern); return err })
	return f, err
}

func (r *retryFS) Rename(oldpath, newpath string) error {
	return r.do("rename", func() error { return r.inner.Rename(oldpath, newpath) })
}

func (r *retryFS) Link(oldname, newname string) error {
	return r.do("link", func() error { return r.inner.Link(oldname, newname) })
}

func (r *retryFS) Remove(name string) error {
	return r.do("remove", func() error { return r.inner.Remove(name) })
}

func (r *retryFS) RemoveAll(path string) error {
	return r.do("removeall", func() error { return r.inner.RemoveAll(path) })
}

func (r *retryFS) MkdirAll(path string, perm iofs.FileMode) error {
	return r.do("mkdir", func() error { return r.inner.MkdirAll(path, perm) })
}

func (r *retryFS) ReadDir(name string) (ents []iofs.DirEntry, err error) {
	err = r.do("readdir", func() error { ents, err = r.inner.ReadDir(name); return err })
	return ents, err
}

func (r *retryFS) Stat(name string) (info iofs.FileInfo, err error) {
	err = r.do("stat", func() error { info, err = r.inner.Stat(name); return err })
	return info, err
}

func (r *retryFS) Truncate(name string, size int64) error {
	return r.do("truncate", func() error { return r.inner.Truncate(name, size) })
}

func (r *retryFS) SyncDir(name string) error {
	return r.do("syncdir", func() error { return r.inner.SyncDir(name) })
}
