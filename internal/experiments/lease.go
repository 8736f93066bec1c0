package experiments

import (
	"encoding/json"
	"errors"
	iofs "io/fs"
	"path/filepath"
	"time"

	"lightwsp/internal/hostfs"
)

// leaseDir is the subdirectory lease files live in, beside the blobs they
// coordinate. Lease files are advisory coordination state, not durable
// artifacts: small plain-JSON records, each written to a temp file first
// and then hard-linked to the lease name — a link fails if the name exists,
// which is atomic on a shared directory and publishes the record whole.
// That is the fleet's cross-node mutex.
const leaseDir = "leases"

// leaseRecord is the content of one lease file.
type leaseRecord struct {
	Owner string `json:"owner"`
	// Expires is the lease deadline in Unix nanoseconds. An expired lease
	// is dead weight from a crashed holder; the next claimant breaks it.
	Expires int64 `json:"expires"`
}

func (c *BlobCache) leasePath(name string) string {
	return filepath.Join(c.dir, leaseDir, name+".lease")
}

// Claim implements Leaser: attempt to take the named lease for owner. The
// claim links a complete record to the lease name; losing the race (the
// file exists with an unexpired record) returns false. A record that is
// expired or undecodable belonged to a crashed or wedged holder and is
// broken: removed, then re-claimed through the same exclusive link so two
// breakers still serialize.
func (c *BlobCache) Claim(name, owner string, ttl time.Duration) bool {
	for attempt := 0; attempt < 2; attempt++ {
		if c.tryCreateLease(name, owner, ttl) {
			return true
		}
		rec, err := c.readLease(name)
		if err == nil && time.Now().UnixNano() < rec.Expires {
			return false // live holder
		}
		// Expired or unreadable: break it and retry the exclusive link
		// exactly once — if another breaker wins the re-create, we lose.
		if err := c.fs.Remove(c.leasePath(name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return false
		}
	}
	return false
}

// Renew implements Leaser: extend a lease owner already holds. Returns
// false when the lease was lost — expired and broken, or taken by another
// owner — in which case the holder must assume a competitor is running.
func (c *BlobCache) Renew(name, owner string, ttl time.Duration) bool {
	rec, err := c.readLease(name)
	if err != nil || rec.Owner != owner {
		return false
	}
	return c.writeLease(name, owner, ttl) == nil
}

// Release implements Leaser: drop the lease if owner still holds it.
func (c *BlobCache) Release(name, owner string) {
	rec, err := c.readLease(name)
	if err != nil || rec.Owner != owner {
		return
	}
	if err := c.fs.Remove(c.leasePath(name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		c.counters.RemoveErrors.Add(1)
	}
}

// tryCreateLease publishes a fresh record for owner under the lease name,
// whole or not at all: the record goes to a temp file that is then linked
// to the name, which fails if the name exists. A concurrent claimant thus
// never reads a lease file before its record is in it and mistakes it for
// a torn lease to break.
func (c *BlobCache) tryCreateLease(name, owner string, ttl time.Duration) bool {
	tmp, err := c.leaseTemp(owner, ttl)
	if err != nil {
		return false
	}
	defer c.discardTemp(tmp)
	return c.fs.Link(tmp, c.leasePath(name)) == nil
}

// writeLease replaces the lease file's record (renew path) by renaming a
// complete temp file over it, so readers see the old record or the new
// one. Leases are advisory, so no fsync ceremony: a lease lost to a power
// cut just means the work is claimed again.
func (c *BlobCache) writeLease(name, owner string, ttl time.Duration) error {
	tmp, err := c.leaseTemp(owner, ttl)
	if err != nil {
		return err
	}
	if err := c.fs.Rename(tmp, c.leasePath(name)); err != nil {
		c.discardTemp(tmp)
		return err
	}
	return nil
}

// leaseTemp writes owner's record, expiring ttl from now, to a new temp
// file in the lease directory and returns the temp file's name.
func (c *BlobCache) leaseTemp(owner string, ttl time.Duration) (string, error) {
	dir := filepath.Join(c.dir, leaseDir)
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := c.fs.CreateTemp(dir, ".tmp*")
	if err != nil {
		return "", err
	}
	data, _ := json.Marshal(leaseRecord{Owner: owner, Expires: time.Now().Add(ttl).UnixNano()})
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		c.discardTemp(f.Name())
		return "", werr
	}
	return f.Name(), nil
}

func (c *BlobCache) readLease(name string) (leaseRecord, error) {
	data, err := c.fs.ReadFile(c.leasePath(name))
	if err != nil {
		return leaseRecord{}, err
	}
	var rec leaseRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return leaseRecord{}, err
	}
	return rec, nil
}

// ReadRaw returns the sealed on-disk bytes of the entry named hash — the
// peer blob API's transfer unit, so the fetching node can re-verify the
// CRC seal end to end. The seal is verified here too; corruption
// quarantines locally and reads as a miss, exactly like ReadJSON.
func (c *BlobCache) ReadRaw(hash string) ([]byte, bool) {
	data, err := c.fs.ReadFile(c.path(hash))
	if err != nil {
		return nil, false
	}
	if _, err := hostfs.UnsealPayload(data, !c.insecureSkipVerify); err != nil {
		if errors.Is(err, hostfs.ErrCorrupt) {
			c.counters.ChecksumFailures.Add(1)
			c.quarantine(hash, err)
		}
		return nil, false
	}
	return data, true
}

// WriteRaw atomically persists pre-sealed bytes as the entry named hash —
// the peer blob API's ingest path. The seal is verified before anything
// touches the store: a peer (or the network) handing over corrupt bytes is
// a counted failure, not a stored entry.
func (c *BlobCache) WriteRaw(hash string, sealed []byte) error {
	if _, err := hostfs.UnsealPayload(sealed, true); err != nil {
		c.counters.ChecksumFailures.Add(1)
		c.warn("raw blob write rejected: bad seal", hash, err)
		return err
	}
	err := c.writeSealed(hash, sealed)
	if err != nil && hostfs.Transient(err) {
		c.counters.Retries.Add(1)
		err = c.writeSealed(hash, sealed)
	}
	if err != nil {
		c.counters.WriteErrors.Add(1)
		c.warn("raw blob write failed", hash, err)
	}
	return err
}
