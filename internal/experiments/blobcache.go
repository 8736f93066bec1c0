package experiments

import (
	"encoding/json"
	"errors"
	iofs "io/fs"
	"log/slog"
	"path/filepath"

	"lightwsp/internal/hostfs"
)

// quarantineDir is the subdirectory corrupt blobs are moved into — kept,
// not deleted, so an operator (or the scrub verb) can inspect what the
// disk did to them.
const quarantineDir = "quarantine"

// BlobCache is a content-addressed JSON blob store with end-to-end
// integrity: entries are files named <hash>.json under one directory, each
// wrapped in the hostfs integrity seal (CRC-32C + length header), written
// atomically (temp file + fsync + rename + directory fsync) so neither a
// crashed writer nor a power cut immediately after WriteJSON returns can
// lose or tear an entry a later read would trust.
//
// Reads verify the seal. A checksum mismatch — bit rot, a torn write the
// rename ordering should have prevented, a firmware lie exposed by a power
// cut — quarantines the file (moved into quarantine/, counted, logged) and
// reads as a miss, never as data. A file with no seal at all is a stale
// entry: it too reads as a miss, and Codec.Load removes it. Self-healing is
// the caller's migration-as-cache-miss contract: a miss recomputes or
// replays.
//
// Every operation is best-effort: I/O failures degrade to a cache miss,
// never to an error or a wrong result — but they are counted and logged
// (StorageCounters), no longer swallowed.
type BlobCache struct {
	dir string
	fs  hostfs.FS

	log      *slog.Logger
	counters *StorageCounters

	// insecureSkipVerify disables seal verification on read. It exists
	// ONLY so the diskfuzz sabotage test can prove the campaign detects
	// the corruption verification would have caught; nothing in
	// production sets it.
	insecureSkipVerify bool
}

// NewBlobCache returns a store rooted at dir on the real host filesystem.
// The directory is created lazily on the first write.
func NewBlobCache(dir string) *BlobCache { return NewBlobCacheFS(dir, hostfs.Disk()) }

// NewBlobCacheFS returns a store rooted at dir over an injectable host
// filesystem (tests and fuzz campaigns pass hostfs.NewMem/Inject stacks).
// Transient failures of whole-file operations are retried
// (hostfs.WithRetry), and each retry counts in the cache's Retries.
func NewBlobCacheFS(dir string, fsys hostfs.FS) *BlobCache {
	c := &BlobCache{dir: dir, counters: DefaultStorageCounters}
	c.fs = hostfs.WithRetry(fsys, hostfs.RetryPolicy{
		OnRetry: func(string, int, error) { c.counters.Retries.Add(1) },
	})
	return c
}

// SetObserver routes the cache's failure logging and counters; nil log
// discards, nil counters falls back to the process-wide default.
func (c *BlobCache) SetObserver(log *slog.Logger, counters *StorageCounters) {
	c.log = log
	if counters != nil {
		c.counters = counters
	}
}

// SetInsecureSkipVerify disables integrity verification on read — the
// diskfuzz sabotage hook proving the campaign catches what the seal
// catches. Never set in production.
func (c *BlobCache) SetInsecureSkipVerify(v bool) { c.insecureSkipVerify = v }

// Dir returns the store's root directory.
func (c *BlobCache) Dir() string { return c.dir }

func (c *BlobCache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

func (c *BlobCache) warn(msg, hash string, err error) {
	if c.log != nil {
		c.log.Warn(msg, "blob", hash, "dir", c.dir, "error", err)
	}
}

// ReadJSON decodes the entry named hash into out, reporting whether a
// valid, integrity-checked JSON document was present. Corrupt entries are
// quarantined; any other failed read, an unsealed file included, is a
// miss. The caller still validates the decoded contents (schema version,
// embedded key) and Removes stale entries.
func (c *BlobCache) ReadJSON(hash string, out any) bool {
	data, err := c.fs.ReadFile(c.path(hash))
	if err != nil {
		return false
	}
	payload, err := hostfs.UnsealPayload(data, !c.insecureSkipVerify)
	switch {
	case errors.Is(err, hostfs.ErrCorrupt):
		c.counters.ChecksumFailures.Add(1)
		c.quarantine(hash, err)
		return false
	case err != nil:
		return false
	}
	if json.Unmarshal(payload, out) != nil {
		// Sealed, checksum-clean, yet undecodable: the writer persisted a
		// malformed document. Quarantine for forensics — deleting would
		// destroy the only evidence.
		c.quarantine(hash, errors.New("sealed payload does not decode"))
		return false
	}
	return true
}

// quarantine moves a detected-corrupt entry aside (treat as miss, keep the
// evidence) and counts it. If the move itself fails the entry is removed —
// a corrupt file must never stay where a reader could trust it again.
func (c *BlobCache) quarantine(hash string, cause error) {
	c.counters.Quarantined.Add(1)
	qdir := filepath.Join(c.dir, quarantineDir)
	dst := filepath.Join(qdir, hash+".json")
	if err := c.fs.MkdirAll(qdir, 0o755); err == nil {
		if err := c.fs.Rename(c.path(hash), dst); err == nil {
			c.warn("corrupt blob quarantined", hash, cause)
			return
		}
	}
	if err := c.fs.Remove(c.path(hash)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		c.counters.RemoveErrors.Add(1)
	}
	c.warn("corrupt blob removed (quarantine move failed)", hash, cause)
}

// Remove deletes the entry named hash (stale-entry eviction). Failures are
// counted and logged — a prune that quietly fails leaves stale data that a
// version bump meant to invalidate.
func (c *BlobCache) Remove(hash string) {
	if err := c.fs.Remove(c.path(hash)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		c.counters.RemoveErrors.Add(1)
		c.warn("blob remove failed", hash, err)
	}
}

// WriteJSON atomically and durably persists v as the entry named hash:
// marshal, seal, write to a temp file in the same directory, fsync the
// temp file, rename over the entry, fsync the directory. A crash at any
// point leaves either the old entry or the new one — durable — never a
// torn or missing file. One transient-I/O failure is retried from scratch
// with a fresh temp file; persistent failure degrades to a counted,
// logged no-op (the cache heals by recomputation).
func (c *BlobCache) WriteJSON(hash string, v any) {
	err := c.write(hash, v)
	if err != nil && hostfs.Transient(err) {
		c.counters.Retries.Add(1)
		err = c.write(hash, v)
	}
	if err != nil {
		c.counters.WriteErrors.Add(1)
		c.warn("blob write failed", hash, err)
	}
}

func (c *BlobCache) write(hash string, v any) error {
	data, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		return err
	}
	return c.writeSealed(hash, hostfs.Seal(data))
}

// writeSealed is the shared atomic-durable publish path: temp file in the
// same directory, fsync, rename, directory fsync. Callers hand it already
// sealed bytes (write seals a marshaled document, WriteRaw verifies a
// peer's).
func (c *BlobCache) writeSealed(hash string, sealed []byte) error {
	if err := c.fs.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	tmp, err := c.fs.CreateTemp(c.dir, hash+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(sealed)
	if werr == nil {
		// Content must be durable before the rename publishes the name:
		// rename-then-crash with unsynced content is how a "written"
		// entry reads back torn.
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		c.discardTemp(name)
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := c.fs.Rename(name, c.path(hash)); err != nil {
		c.discardTemp(name)
		return err
	}
	// And the entry itself must be durable: without the directory fsync a
	// power cut immediately after WriteJSON returns can forget the rename.
	return c.fs.SyncDir(c.dir)
}

func (c *BlobCache) discardTemp(name string) {
	if err := c.fs.Remove(name); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		c.counters.RemoveErrors.Add(1)
	}
}
