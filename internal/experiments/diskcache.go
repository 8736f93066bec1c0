package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lightwsp/internal/hostfs"
	"lightwsp/internal/machine"
)

// diskCache persists completed machine.Stats blobs so repeated bench/CLI
// invocations skip finished simulations. Storage is a BlobCache holding
// RunCodec envelopes: files named by the SHA-256 content hash of the
// canonical run key, written atomically. The envelope embeds the schema
// name, its version and the full key, so a version bump, a truncated file, a
// foreign artifact or a (theoretical) hash collision all read back as a miss
// — never as a wrong result. The cache is best-effort: any I/O or decode
// failure simply degrades to a fresh simulation.
type diskCache struct {
	blobs Store
}

// diskPayload is the RunCodec envelope payload of one cached run.
type diskPayload struct {
	Stats machine.Stats `json:"stats"`
	// Manifest records the provenance and metrics of the simulation that
	// produced this entry (Source stays "fresh" on disk; loads rewrite it).
	Manifest RunManifest `json:"manifest"`
}

func newDiskCache(dir string) *diskCache {
	return &diskCache{blobs: NewBlobCache(dir)}
}

// newDiskCacheStore wraps an arbitrary Store — a TieredStore sharing an L2
// with the rest of a fleet, a RemoteStore, anything satisfying the seam.
func newDiskCacheStore(st Store) *diskCache {
	return &diskCache{blobs: st}
}

// leaser exposes the store's lease arbiter when it has one — the
// cross-node singleflight hook.
func (d *diskCache) leaser() (Leaser, bool) {
	l, ok := d.blobs.(Leaser)
	return l, ok && l != nil
}

// load returns the cached stats and manifest for the given canonical key,
// if present and valid. Stale entries — wrong schema, wrong version, wrong
// key, pre-envelope format — are evicted by the codec.
func (d *diskCache) load(key, hash string) (*machine.Stats, RunManifest, bool) {
	var e diskPayload
	if !RunCodec.Load(d.blobs, hash, key, &e) {
		return nil, RunManifest{}, false
	}
	st := e.Stats
	return &st, e.Manifest, true
}

// store persists one completed run.
func (d *diskCache) store(key, hash string, st *machine.Stats, man RunManifest) {
	RunCodec.Store(d.blobs, hash, key, diskPayload{Stats: *st, Manifest: man})
}

// ScrubOptions tunes ScrubStore.
type ScrubOptions struct {
	// Referenced, when non-nil, is the set of blob hashes some live
	// manifest still points at; entries outside the set are garbage
	// collected. Nil skips reference GC (run caches have no manifests).
	Referenced map[string]bool
	// QuotaBytes, when positive, caps the store size: after validity and
	// reference GC, unreferenced survivors are removed oldest-first until
	// the kept bytes fit. Zero means unbounded.
	QuotaBytes int64
	// Counters receives quarantine/checksum tallies; nil uses the
	// process-wide default.
	Counters *StorageCounters
	// Log receives one line per removed or quarantined entry; nil discards.
	Log *slog.Logger
}

// ScrubReport itemises one ScrubStore pass.
type ScrubReport struct {
	Scanned             int   `json:"scanned"`
	Kept                int   `json:"kept"`
	KeptBytes           int64 `json:"kept_bytes"`
	Quarantined         int   `json:"quarantined"`
	RemovedStale        int   `json:"removed_stale"`
	RemovedUnreferenced int   `json:"removed_unreferenced"`
	RemovedTemp         int   `json:"removed_temp"`
	RemovedQuota        int   `json:"removed_quota"`
}

// Removed is the total number of entries deleted (quarantined entries are
// moved aside, not deleted, and are counted separately).
func (r ScrubReport) Removed() int {
	return r.RemovedStale + r.RemovedUnreferenced + r.RemovedTemp + r.RemovedQuota
}

// ScrubStore walks a blob store, verifies every entry's integrity seal and
// codec envelope, quarantines detected corruption, removes stale (unsealed
// or unknown-envelope) and orphaned-temp entries, garbage-collects blobs no
// manifest references, and enforces an optional size quota. It is the
// offline counterpart of the read-path self-healing in BlobCache: ReadJSON
// heals entries a live workload touches; scrub heals the ones nothing reads
// anymore. Transient failures of whole-file operations are retried
// (hostfs.WithRetry), and each retry counts in the counters' Retries.
func ScrubStore(fsys hostfs.FS, dir string, opt ScrubOptions) (ScrubReport, error) {
	counters := opt.Counters
	if counters == nil {
		counters = DefaultStorageCounters
	}
	fsys = hostfs.WithRetry(fsys, hostfs.RetryPolicy{
		OnRetry: func(string, int, error) { counters.Retries.Add(1) },
	})
	note := func(action, name string, err error) {
		if opt.Log != nil {
			opt.Log.Info("scrub", "action", action, "entry", name, "dir", dir, "cause", err)
		}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return ScrubReport{}, err
	}
	type survivor struct {
		name  string
		size  int64
		mtime time.Time
		ref   bool
	}
	var rep ScrubReport
	var kept []survivor
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue // quarantine/ and friends
		}
		p := filepath.Join(dir, name)
		if strings.Contains(name, ".tmp") {
			// Orphaned temp file from a writer that died mid-publish.
			if fsys.Remove(p) == nil {
				rep.RemovedTemp++
				note("removed-temp", name, nil)
			}
			continue
		}
		if filepath.Ext(name) != ".json" {
			continue
		}
		rep.Scanned++
		data, err := fsys.ReadFile(p)
		if err != nil {
			continue
		}
		payload, err := hostfs.UnsealPayload(data, true)
		if errors.Is(err, hostfs.ErrCorrupt) {
			counters.ChecksumFailures.Add(1)
			counters.Quarantined.Add(1)
			rep.Quarantined++
			qdir := filepath.Join(dir, quarantineDir)
			if fsys.MkdirAll(qdir, 0o755) != nil || fsys.Rename(p, filepath.Join(qdir, name)) != nil {
				fsys.Remove(p)
			}
			note("quarantined", name, err)
			continue
		}
		// An unsealed file is as stale as an unknown envelope.
		var env codecEnvelope
		if err != nil || json.Unmarshal(payload, &env) != nil || !knownEnvelope(env) {
			if fsys.Remove(p) == nil {
				rep.RemovedStale++
				note("removed-stale", name, nil)
			}
			continue
		}
		hash := strings.TrimSuffix(name, ".json")
		referenced := opt.Referenced == nil || opt.Referenced[hash]
		if !referenced {
			if fsys.Remove(p) == nil {
				rep.RemovedUnreferenced++
				note("removed-unreferenced", name, nil)
			}
			continue
		}
		s := survivor{name: name, size: int64(len(data)), ref: opt.Referenced != nil}
		if info, err := fsys.Stat(p); err == nil {
			s.size = info.Size()
			s.mtime = info.ModTime()
		}
		kept = append(kept, s)
	}
	var total int64
	for _, s := range kept {
		total += s.size
	}
	if opt.QuotaBytes > 0 && total > opt.QuotaBytes {
		// Evict oldest-first, but never an entry a manifest still needs:
		// the quota trims cache weight, it must not break a session.
		sort.Slice(kept, func(i, j int) bool { return kept[i].mtime.Before(kept[j].mtime) })
		pruned := kept[:0]
		for _, s := range kept {
			if total > opt.QuotaBytes && !s.ref {
				if fsys.Remove(filepath.Join(dir, s.name)) == nil {
					rep.RemovedQuota++
					total -= s.size
					note("removed-quota", s.name, nil)
					continue
				}
			}
			pruned = append(pruned, s)
		}
		kept = pruned
	}
	rep.Kept = len(kept)
	rep.KeptBytes = total
	return rep, nil
}

// String renders the cache location for progress output.
func (d *diskCache) String() string {
	if loc, ok := d.blobs.(interface{ Dir() string }); ok {
		return fmt.Sprintf("diskcache(%s)", loc.Dir())
	}
	return "diskcache(store)"
}
