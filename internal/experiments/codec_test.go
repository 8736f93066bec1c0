package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lightwsp/internal/hostfs"
)

type codecPayload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func TestCodecRoundTrip(t *testing.T) {
	b := NewBlobCache(t.TempDir())
	in := codecPayload{N: 7, S: "x"}
	RunCodec.Store(b, "h1", "key-1", in)
	var out codecPayload
	if !RunCodec.Load(b, "h1", "key-1", &out) {
		t.Fatal("stored entry did not load")
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestCodecMissesNeverError(t *testing.T) {
	b := NewBlobCache(t.TempDir())
	var out codecPayload
	if RunCodec.Load(b, "absent", "k", &out) {
		t.Fatal("load of absent entry reported a hit")
	}
}

// TestCodecMigration proves that every legacy or foreign on-disk format is
// detected and evicted — never silently mis-read as a current entry. This is
// the migration contract for the three pre-codec schema versions (flat
// disk-cache entries, flat verdict entries, run-key version drift) and for
// entries written before blobs were sealed.
func TestCodecMigration(t *testing.T) {
	cases := []struct {
		name  string
		write func(b *BlobCache, hash string)
	}{
		{"legacy flat disk entry (pre-envelope v3)", func(b *BlobCache, hash string) {
			// The old diskEntry layout: schema_version + key + stats, no envelope.
			b.WriteJSON(hash, map[string]any{
				"schema_version": 3, "key": "k", "stats": map[string]any{"cycles": 12},
			})
		}},
		{"legacy flat verdict entry (pre-envelope v2)", func(b *BlobCache, hash string) {
			b.WriteJSON(hash, map[string]any{"schema_version": 2, "key": "k", "fired": 3})
		}},
		{"older envelope version", func(b *BlobCache, hash string) {
			b.WriteJSON(hash, codecEnvelope{
				Schema: RunCodec.Schema, Version: RunCodec.Version - 1,
				Key: "k", Payload: json.RawMessage(`{}`),
			})
		}},
		{"foreign schema under the same hash", func(b *BlobCache, hash string) {
			VerdictCodec.Store(b, hash, "k", codecPayload{N: 1})
		}},
		{"wrong key (hash collision)", func(b *BlobCache, hash string) {
			RunCodec.Store(b, hash, "other-key", codecPayload{N: 1})
		}},
		{"undecodable payload", func(b *BlobCache, hash string) {
			b.WriteJSON(hash, codecEnvelope{
				Schema: RunCodec.Schema, Version: RunCodec.Version,
				Key: "k", Payload: json.RawMessage(`"not an object"`),
			})
		}},
		{"current envelope without a seal", func(b *BlobCache, hash string) {
			// A current entry in every respect but the integrity seal.
			raw, err := json.Marshal(codecEnvelope{
				Schema: RunCodec.Schema, Version: RunCodec.Version,
				Key: "k", Payload: json.RawMessage(`{"n":1}`),
			})
			if err != nil {
				t.Fatal(err)
			}
			os.MkdirAll(b.Dir(), 0o755)
			os.WriteFile(filepath.Join(b.Dir(), hash+".json"), raw, 0o644)
		}},
		{"truncated file", func(b *BlobCache, hash string) {
			os.MkdirAll(b.Dir(), 0o755)
			os.WriteFile(filepath.Join(b.Dir(), hash+".json"), []byte(`{"schema":`), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBlobCache(t.TempDir())
			const hash = "deadbeef"
			tc.write(b, hash)
			var out codecPayload
			if RunCodec.Load(b, hash, "k", &out) {
				t.Fatal("stale entry loaded as current")
			}
			if _, err := os.Stat(filepath.Join(b.Dir(), hash+".json")); !os.IsNotExist(err) {
				t.Fatal("stale entry not evicted")
			}
			// After eviction a rewrite under the same hash works.
			RunCodec.Store(b, hash, "k", codecPayload{N: 9})
			if !RunCodec.Load(b, hash, "k", &out) || out.N != 9 {
				t.Fatal("rewrite after eviction did not load")
			}
		})
	}
}

// TestSessionCodecRoundTripAndScrub covers the session-manifest and
// session-snapshot envelopes: a manifest round-trips through its codec, and
// Scrub keeps current session artifacts while sweeping stale versions.
func TestSessionCodecRoundTripAndScrub(t *testing.T) {
	b := NewBlobCache(t.TempDir())
	in := sessionManifest{
		ID:   "s1",
		Spec: SessionSpec{Suite: "cpu2006", App: "fuzz-st", Scheme: "lightwsp", SnapshotEvery: 600},
		Snapshots: []SnapshotRef{
			{Record: 3, Segment: 1, BootSeq: 7, Total: 600, Outputs: 2, Hash: "abc"},
		},
	}
	SessionCodec.Store(b, manifestName, "s1", in)
	var out sessionManifest
	if !SessionCodec.Load(b, manifestName, "s1", &out) {
		t.Fatal("manifest did not load")
	}
	if out.ID != in.ID || out.Spec != in.Spec || len(out.Snapshots) != 1 || out.Snapshots[0] != in.Snapshots[0] {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}

	// Current session blobs survive Scrub; an older snapshot version does not.
	SnapshotCodec.Store(b, "snapcur", "session:s1#3", snapshotPayload{ID: "s1", Record: 3})
	old := Codec{Schema: SnapshotCodec.Schema, Version: SnapshotCodec.Version - 1}
	old.Store(b, "snapold", "session:s1#1", snapshotPayload{ID: "s1", Record: 1})
	rep, err := ScrubStore(hostfs.Disk(), b.Dir(), ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if removed := rep.Removed() + rep.Quarantined; removed != 1 {
		t.Fatalf("scrub removed %d entries, want 1 (the old-version snapshot)", removed)
	}
	if !SessionCodec.Load(b, manifestName, "s1", &out) {
		t.Fatal("scrub swept a current manifest")
	}
	var snap snapshotPayload
	if !SnapshotCodec.Load(b, "snapcur", "session:s1#3", &snap) || snap.Record != 3 {
		t.Fatal("scrub swept a current snapshot blob")
	}
}
