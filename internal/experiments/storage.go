package experiments

import "sync/atomic"

// StorageCounters tallies the durable layer's ugly outcomes: detected
// corruption, quarantines, swallowed-no-longer write/remove failures,
// retries, journal truncations and durability loss. One process-wide
// default exists for the CLI tools; the server and the diskfuzz campaign
// each wire their own instance so their counts are isolated.
//
// Every field is monotonic; read them with Snapshot.
type StorageCounters struct {
	// Quarantined counts artifacts moved aside (blob files into the
	// store's quarantine/ directory, severed journal tails into
	// journal.ndjson.quarantined) instead of being trusted or deleted.
	Quarantined atomic.Uint64
	// ChecksumFailures counts integrity-seal mismatches detected on read.
	ChecksumFailures atomic.Uint64
	// WriteErrors counts failed best-effort blob writes.
	WriteErrors atomic.Uint64
	// RemoveErrors counts failed evictions/prunes (previously swallowed).
	RemoveErrors atomic.Uint64
	// Retries counts transient-I/O retries (blob writes, journal appends).
	Retries atomic.Uint64
	// JournalTruncations counts torn or corrupt journal tails cut away.
	JournalTruncations atomic.Uint64
	// DurabilityLost counts journal appends that failed past the retry
	// budget — the events that flip a session store into degraded mode.
	DurabilityLost atomic.Uint64
}

// DefaultStorageCounters is the process-wide instance used by every
// BlobCache and SessionStore that is not given its own with SetObserver.
var DefaultStorageCounters = &StorageCounters{}

// StorageSnapshot is a point-in-time copy of a StorageCounters.
type StorageSnapshot struct {
	Quarantined        uint64 `json:"quarantined"`
	ChecksumFailures   uint64 `json:"checksum_failures"`
	WriteErrors        uint64 `json:"write_errors"`
	RemoveErrors       uint64 `json:"remove_errors"`
	Retries            uint64 `json:"retries"`
	JournalTruncations uint64 `json:"journal_truncations"`
	DurabilityLost     uint64 `json:"durability_lost"`
}

// Snapshot reads every counter atomically (each individually; the set is
// not a consistent cut, which monitoring does not need).
func (c *StorageCounters) Snapshot() StorageSnapshot {
	return StorageSnapshot{
		Quarantined:        c.Quarantined.Load(),
		ChecksumFailures:   c.ChecksumFailures.Load(),
		WriteErrors:        c.WriteErrors.Load(),
		RemoveErrors:       c.RemoveErrors.Load(),
		Retries:            c.Retries.Load(),
		JournalTruncations: c.JournalTruncations.Load(),
		DurabilityLost:     c.DurabilityLost.Load(),
	}
}
