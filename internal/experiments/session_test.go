package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lightwsp/internal/hostfs"
	"lightwsp/internal/wsperr"
)

// sessionSpecForTest is small enough to run in milliseconds but long enough
// (~2.4k cycles under lightwsp) to cross several 600-cycle snapshot cadences.
func sessionSpecForTest() SessionSpec {
	return SessionSpec{Suite: "cpu2006", App: "fuzz-st", Scheme: "lightwsp", SnapshotEvery: 600}
}

// collectLines marshals every delivered event to one NDJSON line, the exact
// bytes the serving layer writes, so equality checks are byte-level.
func collectLines(dst *[]string) func(SessionEvent) error {
	return func(ev SessionEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		*dst = append(*dst, string(b))
		return nil
	}
}

// referenceStream runs a fresh session through targets uninterrupted and
// returns its full stream.
func referenceStream(t *testing.T, spec SessionSpec, targets []uint64) []string {
	t.Helper()
	st, err := OpenSessionStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create("ref", spec)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, target := range targets {
		if err := s.Advance(context.Background(), target, collectLines(&lines), nil); err != nil {
			t.Fatalf("reference advance to %d: %v", target, err)
		}
	}
	st.Close()
	return lines
}

func requireSameStream(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d\nfirst got:  %.200s\nfirst want: %.200s",
			what, len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d diverges\ngot:  %s\nwant: %s", what, i, got[i], want[i])
		}
	}
}

func TestSessionAdvanceReopenResumeByteIdentical(t *testing.T) {
	spec := sessionSpecForTest()
	targets := []uint64{500, 1300, 10_000}
	want := referenceStream(t, spec, targets)
	if len(want) == 0 {
		t.Fatal("reference stream is empty")
	}
	last := want[len(want)-1]
	if !strings.Contains(last, `"done":true`) {
		t.Fatalf("reference did not complete: %s", last)
	}

	dir := t.TempDir()
	st, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	var live []string
	for _, target := range targets {
		if err := s.Advance(context.Background(), target, collectLines(&live), nil); err != nil {
			t.Fatal(err)
		}
	}
	requireSameStream(t, live, want, "live stream vs reference")
	if stat := s.Status(); !stat.Done || stat.Snapshots == 0 {
		t.Fatalf("status after completion: %+v", stat)
	}

	// "Restart the server": drop every open handle, reopen the same dir.
	st.Close()
	st2, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.Open(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}

	// Full-stream resume is byte-identical to the uninterrupted run.
	var replay []string
	if err := s2.Resume(context.Background(), 0, collectLines(&replay), nil); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, replay, want, "resumed stream from seq 0")

	// A mid-stream resume replays exactly the suffix.
	from := uint64(len(want) / 2)
	var tail []string
	if err := s2.Resume(context.Background(), from, collectLines(&tail), nil); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, tail, want[from:], "resumed stream suffix")

	// Re-issuing a satisfied advance adds no records and no events.
	var extra []string
	if err := s2.Advance(context.Background(), 10_000, collectLines(&extra), nil); err != nil {
		t.Fatal(err)
	}
	if len(extra) != 0 {
		t.Fatalf("re-issued advance emitted %d events: %v", len(extra), extra)
	}
}

func TestSessionResumeBeyondStreamFails(t *testing.T) {
	st, err := OpenSessionStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.Create("a", sessionSpecForTest())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(context.Background(), 700, nil, nil); err != nil {
		t.Fatal(err)
	}
	seq := s.Status().Seq
	if err := s.Resume(context.Background(), seq+5, nil, nil); err == nil {
		t.Fatal("resume past the end of the stream succeeded")
	}
}

func TestSessionCanceledAdvanceRebuildsAndResumes(t *testing.T) {
	spec := sessionSpecForTest()
	want := referenceStream(t, spec, []uint64{2000})

	st, err := OpenSessionStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel mid-advance after the first delivered event: the in-memory
	// machine is poisoned mid-record.
	ctx, cancel := context.WithCancel(context.Background())
	var lastSeen uint64
	err = s.Advance(ctx, 2000, func(ev SessionEvent) error {
		lastSeen = ev.Seq
		cancel()
		return nil
	}, nil)
	if err == nil || !errors.Is(err, wsperr.ErrCanceled) {
		t.Fatalf("canceled advance: %v", err)
	}

	// Resume from the last event the client saw, then finish the original
	// target; the concatenation must match the uninterrupted run.
	got := make([]string, lastSeen)
	copy(got, want[:lastSeen]) // the client's retained prefix
	var rest []string
	if err := s.Resume(context.Background(), lastSeen, collectLines(&rest), nil); err != nil {
		t.Fatal(err)
	}
	got = append(got, rest...)
	var more []string
	if err := s.Advance(context.Background(), 2000, collectLines(&more), nil); err != nil {
		t.Fatal(err)
	}
	got = append(got, more...)
	requireSameStream(t, got, want, "canceled+resumed stream vs reference")
}

func TestSessionTruncatedSnapshotFallsBack(t *testing.T) {
	spec := sessionSpecForTest()
	targets := []uint64{1500, 10_000}
	want := referenceStream(t, spec, targets)

	dir := t.TempDir()
	st, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range targets {
		if err := s.Advance(context.Background(), target, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	refs := append([]SnapshotRef(nil), s.refs...)
	if len(refs) < 2 {
		t.Fatalf("want >= 2 snapshots, got %d", len(refs))
	}
	st.Close()

	// Power loss during the newest snapshot's write: truncate its blob.
	newest := filepath.Join(dir, "blobs", refs[len(refs)-1].Hash+".json")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.Open(context.Background(), "a")
	if err != nil {
		t.Fatalf("open with truncated newest snapshot: %v", err)
	}
	var replay []string
	if err := s2.Resume(context.Background(), 0, collectLines(&replay), nil); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, replay, want, "stream after snapshot truncation")

	// Scrub sweeps the unreadable blob out of the shared cache.
	if err := os.WriteFile(newest, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := st2.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed := rep.Removed() + rep.Quarantined; removed != 1 {
		t.Fatalf("scrub removed %d blobs, want 1", removed)
	}
}

func TestSessionAllSnapshotsLostReplaysFromBoot(t *testing.T) {
	spec := sessionSpecForTest()
	targets := []uint64{1500, 10_000}
	want := referenceStream(t, spec, targets)

	dir := t.TempDir()
	st, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range targets {
		if err := s.Advance(context.Background(), target, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if err := os.RemoveAll(filepath.Join(dir, "blobs")); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.Open(context.Background(), "a")
	if err != nil {
		t.Fatalf("open with all snapshots lost: %v", err)
	}
	var replay []string
	if err := s2.Resume(context.Background(), 0, collectLines(&replay), nil); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, replay, want, "stream after losing every snapshot")
}

func TestSessionTornJournalTailTruncated(t *testing.T) {
	spec := sessionSpecForTest()
	dir := t.TempDir()
	st, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(context.Background(), 1500, nil, nil); err != nil {
		t.Fatal(err)
	}
	seq := s.Status().Seq
	records := s.record
	st.Close()

	// A power failure mid-append leaves a partial line.
	journal := filepath.Join(dir, "a", journalName)
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":99,"op":"adva`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.Open(context.Background(), "a")
	if err != nil {
		t.Fatalf("open with torn journal tail: %v", err)
	}
	if got := s2.Status(); got.Seq != seq || s2.record != records {
		t.Fatalf("reopened at seq %d / record %d, want %d / %d", got.Seq, s2.record, seq, records)
	}
	// The tail is gone from disk, so further appends start cleanly.
	if err := s2.Advance(context.Background(), 1700, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "adva\x00") || strings.Contains(string(data), `"adva{`) {
		t.Fatalf("torn bytes survived in journal: %q", data)
	}
}

func TestSessionManifestMigrationFromOlderVersion(t *testing.T) {
	spec := sessionSpecForTest()
	targets := []uint64{1500}
	want := referenceStream(t, spec, targets)

	dir := t.TempDir()
	st, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(context.Background(), 1500, nil, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// An older deployment's manifest: same schema, previous version. It must
	// read as a miss — full journal replay — never as refs.
	old := Codec{Schema: SessionCodec.Schema, Version: SessionCodec.Version - 1}
	man := NewBlobCache(filepath.Join(dir, "a"))
	old.Store(man, manifestName, "a", sessionManifest{ID: "a", Spec: spec})

	st2, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.Open(context.Background(), "a")
	if err != nil {
		t.Fatalf("open with old manifest version: %v", err)
	}
	if len(s2.refs) != 0 {
		t.Fatalf("old manifest yielded %d refs, want 0 (miss)", len(s2.refs))
	}
	var replay []string
	if err := s2.Resume(context.Background(), 0, collectLines(&replay), nil); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, replay, want, "stream after manifest version migration")

	// Loading the stale manifest also evicted it (standard codec behavior),
	// so the next open runs the missing-manifest path.
	st2.Close()
	if _, err := os.Stat(filepath.Join(dir, "a", "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("stale manifest was not evicted: %v", err)
	}
	st3, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	s3, err := st3.Open(context.Background(), "a")
	if err != nil {
		t.Fatalf("open with missing manifest: %v", err)
	}
	var again []string
	if err := s3.Resume(context.Background(), 0, collectLines(&again), nil); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, again, want, "stream with missing manifest")
}

func TestSessionForceSnapshotLosslessDrain(t *testing.T) {
	spec := sessionSpecForTest()
	spec.SnapshotEvery = 0 // no cadence: only the forced snapshot persists

	dir := t.TempDir()
	st, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	var live []string
	if err := s.Advance(context.Background(), 900, collectLines(&live), nil); err != nil {
		t.Fatal(err)
	}
	took, err := s.ForceSnapshot(context.Background())
	if err != nil || !took {
		t.Fatalf("forced snapshot: took=%v err=%v", took, err)
	}
	// Immediately after a snapshot there is nothing new to persist.
	took, err = s.ForceSnapshot(context.Background())
	if err != nil || took {
		t.Fatalf("second forced snapshot: took=%v err=%v", took, err)
	}
	if s.Status().Snapshots != 1 {
		t.Fatalf("snapshots=%d, want 1", s.Status().Snapshots)
	}
	seqAfterSnap := s.Status().Seq
	st.Close()

	// The restart restores from the forced snapshot (not a full replay):
	// resuming from the post-snapshot position works, and the snapshot's
	// events replay for an older client.
	st2, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.Open(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Status().Seq; got != seqAfterSnap {
		t.Fatalf("reopened at seq %d, want %d", got, seqAfterSnap)
	}
	var tail []string
	if err := s2.Resume(context.Background(), uint64(len(live)), collectLines(&tail), nil); err != nil {
		t.Fatal(err)
	}
	if len(tail) == 0 {
		t.Fatal("forced snapshot's drain/boot events did not replay")
	}
	for _, line := range tail {
		if !strings.Contains(line, `"snapshot"`) && !strings.Contains(line, `"probe"`) {
			t.Fatalf("unexpected replayed event: %s", line)
		}
	}
}

func TestSessionBusyAndLifecycleErrors(t *testing.T) {
	st, err := OpenSessionStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Create("blobs", sessionSpecForTest()); err == nil {
		t.Fatal("created a session shadowing the blob dir")
	}
	if _, err := st.Create("../evil", sessionSpecForTest()); err == nil {
		t.Fatal("created a session with a path-escaping id")
	}
	if _, err := st.Create("a", SessionSpec{Suite: "cpu2006", App: "fuzz-st", Scheme: "baseline"}); err == nil {
		t.Fatal("created a session on an uninstrumented scheme")
	}
	if _, err := st.Open(context.Background(), "ghost"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("open of missing session: %v", err)
	}

	s, err := st.Create("a", sessionSpecForTest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("a", sessionSpecForTest()); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate create: %v", err)
	}

	// A second operation while one is in flight fails fast with busy.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		done <- s.Advance(context.Background(), 10_000, func(SessionEvent) error {
			if first {
				first = false
				close(started)
				<-release
			}
			return nil
		}, nil)
	}()
	<-started
	if _, err := s.ForceSnapshot(context.Background()); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("concurrent snapshot: %v", err)
	}
	if err := s.Advance(context.Background(), 99, nil, nil); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("concurrent advance: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if err := st.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("a"); ok {
		t.Fatal("removed session still open")
	}
	if err := s.Advance(context.Background(), 99, nil, nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("advance on removed session: %v", err)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), "a")); !os.IsNotExist(err) {
		t.Fatal("session dir survived removal")
	}
}

func TestSessionListAndSnapshotRetention(t *testing.T) {
	spec := sessionSpecForTest()
	spec.SnapshotEvery = 200 // many snapshots; retention must bound blobs
	st, err := OpenSessionStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("b", spec); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("list = %v", ids)
	}

	if err := s.Advance(context.Background(), 10_000, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(s.refs); got > sessionRetain {
		t.Fatalf("retained %d snapshot refs, want <= %d", got, sessionRetain)
	}
	ents, err := os.ReadDir(filepath.Join(st.Dir(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(s.refs) {
		t.Fatalf("%d blobs on disk, %d refs retained (pruned blobs must be deleted)", len(ents), len(s.refs))
	}
}

// TestSessionBitFlippedSnapshotQuarantined covers the corruption class only
// a checksum catches: one ASCII digit flipped inside the newest snapshot
// blob, so the file still parses as JSON and still carries a plausible
// codec envelope. The restore must detect it via the integrity seal,
// quarantine the blob, fall back to an older snapshot, and replay a
// byte-identical stream — never load the corrupt state.
func TestSessionBitFlippedSnapshotQuarantined(t *testing.T) {
	spec := sessionSpecForTest()
	targets := []uint64{1500, 10_000}
	want := referenceStream(t, spec, targets)

	dir := t.TempDir()
	st, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range targets {
		if err := s.Advance(context.Background(), target, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	refs := append([]SnapshotRef(nil), s.refs...)
	if len(refs) < 2 {
		t.Fatalf("want >= 2 snapshots, got %d", len(refs))
	}
	st.Close()

	// Flip one digit inside the sealed payload (past the seal header), from
	// the back where the PM image array lives.
	newest := filepath.Join(dir, "blobs", refs[len(refs)-1].Hash+".json")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for i := len(data) - 1; i > len(data)/2; i-- {
		if data[i] >= '0' && data[i] <= '8' {
			data[i]++
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no digit to flip in snapshot blob")
	}
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Prove this is the checksum-only class: without the seal, the payload
	// still parses as JSON and still claims a current codec envelope.
	payload, err := hostfs.UnsealPayload(data, false)
	if err != nil {
		t.Fatal(err)
	}
	var env codecEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatalf("flipped blob no longer parses as JSON — wrong corruption class for this test: %v", err)
	}
	if !knownEnvelope(env) {
		t.Fatal("flipped blob lost its envelope — wrong corruption class for this test")
	}

	st2, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	counters := &StorageCounters{}
	st2.SetObserver(nil, counters)
	s2, err := st2.Open(context.Background(), "a")
	if err != nil {
		t.Fatalf("open with bit-flipped newest snapshot: %v", err)
	}
	var replay []string
	if err := s2.Resume(context.Background(), 0, collectLines(&replay), nil); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, replay, want, "stream after snapshot bit flip")

	if counters.ChecksumFailures.Load() == 0 || counters.Quarantined.Load() == 0 {
		t.Fatalf("corruption not counted: %+v", counters.Snapshot())
	}
	q := filepath.Join(dir, "blobs", quarantineDir, refs[len(refs)-1].Hash+".json")
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("corrupt blob not quarantined: %v", err)
	}
}

// TestSessionCorruptMidJournalRecordSevered flips one digit inside a
// middle journal record. The corrupt record and everything after it are
// untrustworthy; the journal must be severed there, the severed bytes
// quarantined, and the session must reopen from the surviving prefix and
// regenerate — record for record — the same journal and stream an
// uninterrupted run produced.
func TestSessionCorruptMidJournalRecordSevered(t *testing.T) {
	spec := sessionSpecForTest()
	want := referenceStream(t, spec, []uint64{1500})

	dir := t.TempDir()
	st, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(context.Background(), 1500, nil, nil); err != nil {
		t.Fatal(err)
	}
	records := s.record
	st.Close()

	journal := filepath.Join(dir, "a", journalName)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if uint64(len(lines)) != records || len(lines) < 4 {
		t.Fatalf("journal has %d lines, want %d (>= 4)", len(lines), records)
	}
	// Corrupt the fourth record inside its sealed JSON (past the 9-byte CRC
	// prefix); a digit flip keeps the JSON well-formed, so only the
	// checksum can catch it.
	line := []byte(lines[3])
	flipped := false
	for i := 9; i < len(line); i++ {
		if line[i] >= '0' && line[i] <= '8' {
			line[i]++
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no digit to flip in journal record")
	}
	lines[3] = string(line)
	if err := os.WriteFile(journal, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	counters := &StorageCounters{}
	st2.SetObserver(nil, counters)
	s2, err := st2.Open(context.Background(), "a")
	if err != nil {
		t.Fatalf("open with corrupt mid-journal record: %v", err)
	}
	if s2.record != 3 {
		t.Fatalf("journal severed at record %d, want 3", s2.record)
	}
	if counters.JournalTruncations.Load() == 0 || counters.ChecksumFailures.Load() == 0 {
		t.Fatalf("corruption not counted: %+v", counters.Snapshot())
	}
	if q, err := os.ReadFile(journal + ".quarantined"); err != nil || len(q) == 0 {
		t.Fatalf("severed tail not quarantined: %v (%d bytes)", err, len(q))
	}

	// Re-issuing the advance regenerates the identical journal and stream:
	// the owed-snapshot derivation makes the records converge.
	if err := s2.Advance(context.Background(), 1500, nil, nil); err != nil {
		t.Fatal(err)
	}
	if s2.record != records {
		t.Fatalf("regenerated journal has %d records, want %d", s2.record, records)
	}
	var replay []string
	if err := s2.Resume(context.Background(), 0, collectLines(&replay), nil); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, replay, want, "stream after journal sever + re-advance")
}

// TestSessionLegacyUnsealedJournalMigrates proves a pre-seal journal (plain
// JSON lines, no CRC prefix) replays transparently and new appends are
// sealed — old stores upgrade in place.
func TestSessionLegacyUnsealedJournalMigrates(t *testing.T) {
	spec := sessionSpecForTest()
	want := referenceStream(t, spec, []uint64{700})

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Hand-write an unsealed journal as PR-8 wrote them.
	var legacy strings.Builder
	for _, rec := range []journalRecord{
		{N: 1, Op: "create", Spec: &spec},
		{N: 2, Op: "advance", Target: 600},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		legacy.Write(b)
		legacy.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "a", journalName), []byte(legacy.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.Open(context.Background(), "a")
	if err != nil {
		t.Fatalf("open legacy journal: %v", err)
	}
	if err := s.Advance(context.Background(), 700, nil, nil); err != nil {
		t.Fatal(err)
	}
	var replay []string
	if err := s.Resume(context.Background(), 0, collectLines(&replay), nil); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, replay, want, "stream after legacy-journal migration")

	// The tail appended by this store is sealed.
	data, err := os.ReadFile(filepath.Join(dir, "a", journalName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	if _, err := hostfs.UnsealLine([]byte(last), true); err != nil {
		t.Fatalf("new append not sealed: %v (%q)", err, last)
	}
}

// TestConcurrentBenchmarkSessionsPMHash pins the fleet_rw benchmark's session
// output (perfbench/expected.json): two sessions with the benchmark's spec —
// CPU2006 hmmer under LightWSP, a snapshot (a power cut) every 100,000
// cycles — advance concurrently on one store, 25,000 cycles at a time, and
// each must finish with PM hash d913f9e05073bba2. Run under -race it also
// checks that concurrent sessions share no mutable state. A change meant to
// alter simulation updates the hash here and in the benchmark together.
func TestConcurrentBenchmarkSessionsPMHash(t *testing.T) {
	const wantHash = "d913f9e05073bba2"
	st, err := OpenSessionStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	spec := SessionSpec{Suite: "CPU2006", App: "hmmer", Scheme: "lightwsp", SnapshotEvery: 100_000}
	hashes := make([]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range hashes {
		s, err := st.Create(fmt.Sprintf("bench-%d", i), spec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var last SessionEvent
			for target := uint64(25_000); !last.Done && target <= 10_000_000; target += 25_000 {
				err := s.Advance(context.Background(), target, func(ev SessionEvent) error {
					if ev.Type == "advance" {
						last = ev
					}
					return nil
				}, nil)
				if err != nil {
					errs[i] = fmt.Errorf("advance to %d: %w", target, err)
					return
				}
			}
			if !last.Done {
				errs[i] = fmt.Errorf("not done at total %d", last.Total)
				return
			}
			hashes[i] = last.PMHash
		}(i)
	}
	wg.Wait()
	for i := range hashes {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if hashes[i] != wantHash {
			t.Errorf("session %d finished with pm_hash %s, want %s", i, hashes[i], wantHash)
		}
	}
}
