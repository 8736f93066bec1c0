package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"lightwsp/internal/experiments"
	"lightwsp/internal/hostfs"
)

// sessionLadder runs a short durable session over fsys, then reopens the
// store from fsys and replays the session's stream from its journal and
// snapshots; it returns every event streamed.
func sessionLadder(t *testing.T, fsys hostfs.FS) []byte {
	t.Helper()
	st, err := experiments.OpenSessionStoreFS("sessions", fsys)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.Create("ladder", experiments.SessionSpec{
		Suite: "CPU2006", App: "fuzz-st", Scheme: "lightwsp", SnapshotEvery: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	emit := func(ev experiments.SessionEvent) error {
		return json.NewEncoder(&out).Encode(ev)
	}
	for _, target := range []uint64{300, 600, 900, 1300, 1 << 40} {
		if err := sess.Advance(context.Background(), target, emit, nil); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	reopened, err := experiments.OpenSessionStoreFS("sessions", fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	sess, err = reopened.Open(context.Background(), "ladder")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Resume(context.Background(), 0, emit, nil); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestTimedFSStreamsIdentically: the timing filesystem must not change
// what a session does — the same ladder over a wrapped and a bare MemFS
// streams byte-identical events — and it must see the journal's Syncs
// through the File handles it wraps.
func TestTimedFSStreamsIdentically(t *testing.T) {
	bare := sessionLadder(t, hostfs.NewMem(hostfs.Plan{}))
	fs := newTimedFS(hostfs.NewMem(hostfs.Plan{}))
	wrapped := sessionLadder(t, fs)
	if len(bare) == 0 || !bytes.Equal(bare, wrapped) {
		t.Fatalf("event streams differ:\nbare:    %.300s\nwrapped: %.300s", bare, wrapped)
	}
	if fs.syncs.Load() == 0 || fs.written.Load() == 0 {
		t.Fatalf("wrapper saw %d syncs and %d bytes, want both non-zero", fs.syncs.Load(), fs.written.Load())
	}
}

// TestTimedStoreKeepsLeases: a lease claimed through the wrapper excludes
// a second claimant, and a TieredStore over the wrapper arbitrates through
// it rather than through its local tier.
func TestTimedStoreKeepsLeases(t *testing.T) {
	inner := experiments.NewBlobCache(t.TempDir())
	l2 := newTimedStore(inner)
	if !l2.Claim("run-x", "first", time.Minute) {
		t.Fatal("first claim through the wrapper failed")
	}
	if l2.Claim("run-x", "second", time.Minute) || inner.Claim("run-x", "third", time.Minute) {
		t.Fatal("a second claimant took a lease held through the wrapper")
	}
	l2.Release("run-x", "first")
	if !inner.Claim("run-x", "third", time.Minute) {
		t.Fatal("released lease could not be claimed")
	}

	tiered := experiments.NewTieredStore(experiments.NewBlobCache(t.TempDir()), l2)
	before := l2.claims.Load()
	if !tiered.Claim("run-y", "a", time.Minute) || tiered.Claim("run-y", "b", time.Minute) {
		t.Fatal("tiered lease did not exclude the second claimant")
	}
	if got := l2.claims.Load() - before; got != 2 {
		t.Fatalf("tiered store sent %d claims through the wrapper, want 2", got)
	}
}
