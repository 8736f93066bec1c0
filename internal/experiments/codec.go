package experiments

import "encoding/json"

// Codec names one versioned on-disk JSON schema. Every artifact this repo
// persists and later trusts — cached run stats, memoized crash-fuzzing
// verdicts, repro files — carries a (schema, version) stamp from the table
// below, and the Load/Store helpers wrap payloads in a common envelope that
// also embeds the full content key. A reader that finds the wrong schema
// name, the wrong version, the wrong key, or an undecodable payload treats
// the entry as a miss and evicts it — never as a result. Beneath the
// envelope, BlobCache seals every file with a CRC-32C integrity trailer
// (internal/hostfs), so the envelope defends against semantic staleness and
// the seal against physical corruption: a bit flip that still decodes as a
// plausible envelope quarantines instead of loading.
//
// Before this table existed the repo had three ad-hoc version constants
// (disk-cache entries, crash-fuzz repro files, the run key) that had to be
// bumped in lock-step by convention; now each schema's version lives in
// exactly one place and the envelope makes cross-schema reads structurally
// impossible (a verdict blob can never decode as run stats, whatever the
// hash collision).
type Codec struct {
	// Schema is the artifact family, e.g. "run-stats".
	Schema string
	// Version is the family's current schema version; bump it whenever the
	// meaning of a persisted payload changes.
	Version int
}

// The schema versions, one const per family. These are the only version
// numbers in the repo; everything else (run keys, manifests, repro files,
// cache envelopes) derives from them.
const (
	// runSchemaVersion covers the canonical run key, cached run stats and
	// run manifests.
	//
	// v2: disk entries carry a RunManifest (provenance + metrics snapshot).
	// v3: machine.Config grew the persist-fabric robustness knobs
	// (RetryTimeout, RetryBudget, DegradeDeadline, BrokenDupAcks);
	// envelope-based storage (pre-envelope flat entries read as a miss).
	runSchemaVersion = 3
	// verdictSchemaVersion covers memoized crash-fuzzing verdicts; it moves
	// with reproSchemaVersion because both describe the same replay
	// semantics.
	verdictSchemaVersion = 2
	// reproSchemaVersion covers self-contained crash-fuzzing repro files.
	reproSchemaVersion = 2
	// sessionSchemaVersion covers durable-session manifests (the per-session
	// list of snapshot refs).
	//
	// v2: refs carry the boot-event sequence number so resume can pick the
	// newest snapshot a client's last-seen milestone allows. A v1 manifest
	// (refs without boot seqs) reads as a miss, and the session falls back to
	// booting fresh and replaying its full journal — slower, never wrong.
	sessionSchemaVersion = 2
	// snapshotSchemaVersion covers content-addressed session snapshot blobs
	// (drained PM image + resume metadata).
	//
	// v2: the WPQ emits its own events, which moves the probe-stream
	// position a snapshot's BootSeq names in multi-threaded sessions; a v1
	// snapshot reads as a miss and the session replays its journal.
	snapshotSchemaVersion = 2
)

// The codec table: one entry per persisted artifact family.
var (
	// RunCodec stores one simulation's Stats + RunManifest keyed by the
	// canonical run key (the Runner's disk cache).
	RunCodec = Codec{Schema: "run-stats", Version: runSchemaVersion}
	// VerdictCodec memoizes passing crash-fuzzing verdicts keyed by run key
	// + schedule + fault plan (internal/crashfuzz).
	VerdictCodec = Codec{Schema: "crashfuzz-verdict", Version: verdictSchemaVersion}
	// ReproCodec versions self-contained crash-fuzzing repro files
	// (internal/crashfuzz repro.go); repros keep their flat self-describing
	// layout for hand-editing, but their version number lives here.
	ReproCodec = Codec{Schema: "crashfuzz-repro", Version: reproSchemaVersion}
	// SessionCodec stores a durable session's manifest: its spec plus the
	// refs of its retained snapshots (session.go).
	SessionCodec = Codec{Schema: "session-manifest", Version: sessionSchemaVersion}
	// SnapshotCodec stores one durable session snapshot — the power-failure
	// crash image exported word by word, with the metadata needed to recover
	// and keep replaying the journal — keyed by content hash in the session
	// store's blob cache.
	SnapshotCodec = Codec{Schema: "session-snapshot", Version: snapshotSchemaVersion}
)

// codecEnvelope is the on-disk wrapper around every blob-cache payload.
type codecEnvelope struct {
	Schema  string          `json:"schema"`
	Version int             `json:"version"`
	Key     string          `json:"key,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// Load reads the entry named hash from b and decodes its payload into out.
// A missing entry is a plain miss; an entry whose schema, version or
// embedded key disagree — or whose payload does not decode — is stale (the
// format changed under it, or a hash collided) and is evicted before the
// miss is reported.
func (c Codec) Load(b Store, hash, key string, out any) bool {
	var env codecEnvelope
	if !b.ReadJSON(hash, &env) {
		b.Remove(hash) // corrupt or absent; removing an absent file is a no-op
		return false
	}
	if env.Schema != c.Schema || env.Version != c.Version || env.Key != key ||
		json.Unmarshal(env.Payload, out) != nil {
		b.Remove(hash)
		return false
	}
	return true
}

// Store wraps payload in the codec's envelope and persists it under hash.
// Best-effort, like all blob-cache writes.
func (c Codec) Store(b Store, hash, key string, payload any) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return
	}
	b.WriteJSON(hash, codecEnvelope{Schema: c.Schema, Version: c.Version, Key: key, Payload: raw})
}

// knownEnvelope reports whether env matches a current blob-cache codec —
// the keep-criterion Scrub uses.
func knownEnvelope(env codecEnvelope) bool {
	for _, c := range []Codec{RunCodec, VerdictCodec, SessionCodec, SnapshotCodec} {
		if env.Schema == c.Schema && env.Version == c.Version {
			return true
		}
	}
	return false
}
