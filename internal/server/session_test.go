package server

import (
	"context"
	"encoding/json"
	"io"
	iofs "io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lightwsp/internal/experiments"
	"lightwsp/internal/hostfs"
)

// sessionSpec is the test workload: the miniature single-threaded fuzz
// profile (2405 cycles under LightWSP) with a cadence that yields several
// snapshots over a full run.
var sessionSpec = SessionCreateRequest{
	ID: "alpha", Suite: "cpu2006", App: "fuzz-st",
	Scheme: "lightwsp", SnapshotEvery: 600,
}

// postStream posts a JSON body and returns the response's NDJSON lines.
func postStream(t *testing.T, url string, body any) (int, []string) {
	t.Helper()
	status, raw, _ := post(t, url, body)
	text := strings.TrimSuffix(string(raw), "\n")
	if text == "" {
		return status, nil
	}
	return status, strings.Split(text, "\n")
}

// engineReference computes the canonical event stream of spec advanced
// through targets, straight from the experiments engine in its own store —
// the ground truth every HTTP stream must match byte for byte.
func engineReference(t *testing.T, req SessionCreateRequest, targets []uint64) []string {
	t.Helper()
	st, err := experiments.OpenSessionStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess, err := st.Create(req.ID, experiments.SessionSpec{
		Suite: req.Suite, App: req.App, Scheme: req.Scheme,
		SnapshotEvery: req.SnapshotEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	emit := func(ev experiments.SessionEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		lines = append(lines, string(b))
		return nil
	}
	for _, target := range targets {
		if err := sess.Advance(context.Background(), target, emit, nil); err != nil {
			t.Fatalf("reference advance to %d: %v", target, err)
		}
	}
	return lines
}

func requireLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d\ngot:  %v\nwant: %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d differs\ngot:  %s\nwant: %s", what, i, got[i], want[i])
		}
	}
}

// stripResumeHeader drops the unnumbered header line a resume stream starts
// with, after checking it is one.
func stripResumeHeader(t *testing.T, lines []string) []string {
	t.Helper()
	if len(lines) == 0 || !strings.Contains(lines[0], `"type":"resume"`) {
		t.Fatalf("resume stream missing header: %v", lines)
	}
	return lines[1:]
}

// TestSessionHTTPLifecycleSurvivesRestart is the tentpole contract over
// HTTP: a session advanced in steps streams exactly the engine's canonical
// events; a second server booted over the same directory (the first is
// simply abandoned, as a SIGKILL would leave it) restores the session and
// replays the stream byte-identically from any last-seen position.
func TestSessionHTTPLifecycleSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	targets := []uint64{1300, 10000}
	ref := engineReference(t, sessionSpec, targets)
	if len(ref) == 0 {
		t.Fatal("empty reference stream")
	}

	_, ts := newTestServer(t, Config{Workers: 2, SessionDir: dir})
	status, body, _ := post(t, ts.URL+"/v1/session", sessionSpec)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	var created experiments.SessionStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID != "alpha" || created.Spec.SnapshotEvery != 600 {
		t.Fatalf("unexpected created status: %+v", created)
	}

	var live []string
	for _, target := range targets {
		status, lines := postStream(t, ts.URL+"/v1/session/alpha/advance",
			SessionAdvanceRequest{Target: target})
		if status != http.StatusOK {
			t.Fatalf("advance to %d: status %d: %v", target, status, lines)
		}
		live = append(live, lines...)
	}
	requireLines(t, "live advance stream", live, ref)

	// A re-issued advance past the end streams nothing and succeeds.
	if status, lines := postStream(t, ts.URL+"/v1/session/alpha/advance",
		SessionAdvanceRequest{Target: 10000}); status != http.StatusOK || len(lines) != 0 {
		t.Fatalf("re-issued advance: status %d, lines %v", status, lines)
	}

	var listed SessionListResponse
	if got := get(t, ts.URL+"/v1/session", &listed); got != http.StatusOK {
		t.Fatalf("list: status %d", got)
	}
	if len(listed.Sessions) != 1 || listed.Sessions[0].ID != "alpha" || !listed.Sessions[0].Done {
		t.Fatalf("unexpected listing: %+v", listed)
	}

	// "Restart": a new server over the same directory. The first server is
	// abandoned un-drained, exactly the state a kill -9 leaves behind.
	s2, ts2 := newTestServer(t, Config{Workers: 2, SessionDir: dir})
	if n := s2.sessionsRestored.Load(); n != 1 {
		t.Fatalf("restored %d sessions, want 1", n)
	}
	var st StatsResponse
	get(t, ts2.URL+"/stats", &st)
	if st.SessionsOpen != 1 || st.SessionsRestored != 1 {
		t.Fatalf("stats: open %d restored %d, want 1/1", st.SessionsOpen, st.SessionsRestored)
	}

	status, lines := postStream(t, ts2.URL+"/v1/session/alpha/resume",
		SessionResumeRequest{LastSeq: 0})
	if status != http.StatusOK {
		t.Fatalf("resume: status %d: %v", status, lines)
	}
	requireLines(t, "full resume replay", stripResumeHeader(t, lines), ref)

	// Resuming from a mid-stream position replays exactly the suffix.
	mid := len(ref) / 2
	var midEv experiments.SessionEvent
	if err := json.Unmarshal([]byte(ref[mid]), &midEv); err != nil {
		t.Fatal(err)
	}
	status, lines = postStream(t, ts2.URL+"/v1/session/alpha/resume",
		SessionResumeRequest{LastSeq: midEv.Seq})
	if status != http.StatusOK {
		t.Fatalf("mid resume: status %d", status)
	}
	requireLines(t, "mid resume replay", stripResumeHeader(t, lines), ref[mid+1:])

	// Metrics surface the session plane.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lightwsp_sessions_open 1",
		"lightwsp_sessions_restored_total 1",
		"lightwsp_session_resumes_total 2",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// Delete, then the session is gone for every verb.
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/session/alpha", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if got := get(t, ts2.URL+"/v1/session/alpha", nil); got != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", got)
	}
}

// TestSessionHTTPValidation covers the create/lookup error contract.
func TestSessionHTTPValidation(t *testing.T) {
	// Without a session directory every session endpoint answers 503.
	_, tsOff := newTestServer(t, Config{Workers: 1})
	if status, body, _ := post(t, tsOff.URL+"/v1/session", sessionSpec); status != http.StatusServiceUnavailable {
		t.Fatalf("create without store: status %d: %s", status, body)
	}
	if got := get(t, tsOff.URL+"/v1/session", nil); got != http.StatusServiceUnavailable {
		t.Fatalf("list without store: status %d", got)
	}

	_, ts := newTestServer(t, Config{Workers: 1, SessionDir: t.TempDir()})
	cases := []struct {
		name string
		req  SessionCreateRequest
		want int
	}{
		{"unknown workload", SessionCreateRequest{ID: "x", Suite: "cpu2006", App: "nope"}, http.StatusNotFound},
		{"unknown scheme", SessionCreateRequest{ID: "x", Suite: "cpu2006", App: "fuzz-st", Scheme: "warp"}, http.StatusBadRequest},
		{"uninstrumented scheme", SessionCreateRequest{ID: "x", Suite: "cpu2006", App: "fuzz-st", Scheme: "baseline"}, http.StatusBadRequest},
		{"invalid id", SessionCreateRequest{ID: "no/slash", Suite: "cpu2006", App: "fuzz-st"}, http.StatusBadRequest},
		{"reserved id", SessionCreateRequest{ID: "blobs", Suite: "cpu2006", App: "fuzz-st"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status, body, _ := post(t, ts.URL+"/v1/session", tc.req); status != tc.want {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, status, tc.want, body)
		}
	}
	if status, _, _ := post(t, ts.URL+"/v1/session", sessionSpec); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	if status, body, _ := post(t, ts.URL+"/v1/session", sessionSpec); status != http.StatusConflict {
		t.Fatalf("duplicate create: status %d: %s", status, body)
	}
	if got := get(t, ts.URL+"/v1/session/missing", nil); got != http.StatusNotFound {
		t.Fatalf("get unknown: status %d, want 404", got)
	}
	// An omitted ID gets a generated one.
	anon := sessionSpec
	anon.ID = ""
	status, body, _ := post(t, ts.URL+"/v1/session", anon)
	if status != http.StatusCreated {
		t.Fatalf("anonymous create: status %d: %s", status, body)
	}
	var created experiments.SessionStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(created.ID, "s-") || !experiments.ValidSessionID(created.ID) {
		t.Fatalf("generated id %q", created.ID)
	}
}

// TestSessionHTTPListSortedByID: GET /v1/session lists the open sessions in
// ID order, whatever order they were created in.
func TestSessionHTTPListSortedByID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SessionDir: t.TempDir()})
	for _, id := range []string{"delta", "alpha", "foxtrot", "charlie", "echo", "bravo"} {
		req := sessionSpec
		req.ID = id
		if status, body, _ := post(t, ts.URL+"/v1/session", req); status != http.StatusCreated {
			t.Fatalf("create %s: status %d: %s", id, status, body)
		}
	}
	var listed SessionListResponse
	if got := get(t, ts.URL+"/v1/session", &listed); got != http.StatusOK {
		t.Fatalf("list: status %d", got)
	}
	var ids []string
	for _, st := range listed.Sessions {
		ids = append(ids, st.ID)
	}
	if got, want := strings.Join(ids, ","), "alpha,bravo,charlie,delta,echo,foxtrot"; got != want {
		t.Fatalf("listing order %s, want %s", got, want)
	}
}

// TestSessionHTTPBusyConflict: while one operation holds a session, advance
// and delete answer 409 and leave the running operation untouched.
func TestSessionHTTPBusyConflict(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, SessionDir: t.TempDir()})
	if status, body, _ := post(t, ts.URL+"/v1/session", sessionSpec); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	sess, ok := srv.sessions.Get("alpha")
	if !ok {
		t.Fatal("session not open")
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		done <- sess.Advance(context.Background(), 1300, func(experiments.SessionEvent) error {
			if first {
				first = false
				close(entered)
				<-release
			}
			return nil
		}, nil)
	}()
	<-entered

	if status, body, _ := post(t, ts.URL+"/v1/session/alpha/advance",
		SessionAdvanceRequest{Target: 2000}); status != http.StatusConflict {
		t.Fatalf("advance while busy: status %d: %s", status, body)
	}
	if status, body, _ := post(t, ts.URL+"/v1/session/alpha/resume",
		SessionResumeRequest{}); status != http.StatusConflict {
		t.Fatalf("resume while busy: status %d: %s", status, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/alpha", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete while busy: status %d", resp.StatusCode)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held advance failed: %v", err)
	}
}

// TestSessionDrainForcesFinalSnapshot is the lossless-drain fix: a session
// with cadence snapshots disabled still gets one durable snapshot when the
// server drains, so the next boot recovers it with zero replay.
func TestSessionDrainForcesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 2, SessionDir: dir})
	spec := sessionSpec
	spec.SnapshotEvery = 0 // cadence off: only the drain snapshot can exist
	if status, body, _ := post(t, ts.URL+"/v1/session", spec); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	if status, lines := postStream(t, ts.URL+"/v1/session/alpha/advance",
		SessionAdvanceRequest{Target: 1000}); status != http.StatusOK {
		t.Fatalf("advance: status %d: %v", status, lines)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st, err := experiments.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess, err := st.Open(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	got := sess.Status()
	if got.Snapshots != 1 || got.LastSnapshotTotal != 1000 || got.Total != 1000 {
		t.Fatalf("after drain: %+v, want one snapshot at total 1000", got)
	}
}

// TestSessionHTTPTruncatedSnapshotsFallBack: a restart that finds every
// snapshot blob torn (truncated mid-write by the crash) falls back to full
// journal replay and still serves a byte-identical resume.
func TestSessionHTTPTruncatedSnapshotsFallBack(t *testing.T) {
	dir := t.TempDir()
	targets := []uint64{1300, 10000}
	ref := engineReference(t, sessionSpec, targets)

	_, ts := newTestServer(t, Config{Workers: 2, SessionDir: dir})
	if status, body, _ := post(t, ts.URL+"/v1/session", sessionSpec); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	for _, target := range targets {
		if status, lines := postStream(t, ts.URL+"/v1/session/alpha/advance",
			SessionAdvanceRequest{Target: target}); status != http.StatusOK {
			t.Fatalf("advance to %d: status %d: %v", target, status, lines)
		}
	}

	blobs, err := filepath.Glob(filepath.Join(dir, "blobs", "*"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no snapshot blobs found (err %v)", err)
	}
	for _, b := range blobs {
		if err := os.Truncate(b, 10); err != nil {
			t.Fatal(err)
		}
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, SessionDir: dir})
	status, lines := postStream(t, ts2.URL+"/v1/session/alpha/resume",
		SessionResumeRequest{LastSeq: 0})
	if status != http.StatusOK {
		t.Fatalf("resume: status %d: %v", status, lines)
	}
	requireLines(t, "resume after torn snapshots", stripResumeHeader(t, lines), ref)
}

// TestSessionResumeBeyondStreamRejected: asking to resume past the end of
// the stream is a client error carried on the NDJSON stream.
func TestSessionResumeBeyondStreamRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SessionDir: t.TempDir()})
	if status, _, _ := post(t, ts.URL+"/v1/session", sessionSpec); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	status, lines := postStream(t, ts.URL+"/v1/session/alpha/resume",
		SessionResumeRequest{LastSeq: 999999})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	lines = stripResumeHeader(t, lines)
	if len(lines) != 1 || !strings.Contains(lines[0], `"type":"error"`) {
		t.Fatalf("want one terminal error line, got %v", lines)
	}
}

// flakySessionFS wraps a real filesystem and fails every file fsync with
// ENOSPC while broken — the disk-full failure mode where writes appear to
// succeed but durability is gone.
type flakySessionFS struct {
	hostfs.FS
	broken atomic.Bool
}

func (f *flakySessionFS) OpenFile(name string, flag int, perm iofs.FileMode) (hostfs.File, error) {
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakySessionFile{File: h, fs: f}, nil
}

func (f *flakySessionFS) CreateTemp(dir, pattern string) (hostfs.File, error) {
	h, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &flakySessionFile{File: h, fs: f}, nil
}

type flakySessionFile struct {
	hostfs.File
	fs *flakySessionFS
}

func (h *flakySessionFile) Sync() error {
	if h.fs.broken.Load() {
		return &iofs.PathError{Op: "sync", Path: h.Name(), Err: syscall.ENOSPC}
	}
	return h.File.Sync()
}

// TestSessionDegradedDiskServes503AndRecovers is the graceful-degradation
// ladder end to end: a disk that stops honoring fsync turns session
// advances into 503 + Retry-After (with the degraded gauge up), not a
// crash and not a silent durability lie — and the store heals itself the
// moment the disk recovers, converging on the byte-identical stream.
func TestSessionDegradedDiskServes503AndRecovers(t *testing.T) {
	ref := engineReference(t, sessionSpec, []uint64{700, 1400})

	ffs := &flakySessionFS{FS: hostfs.Disk()}
	_, ts := newTestServer(t, Config{Workers: 2, SessionDir: t.TempDir(), SessionFS: ffs})

	if status, body, _ := post(t, ts.URL+"/v1/session", sessionSpec); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	var live []string
	status, lines := postStream(t, ts.URL+"/v1/session/alpha/advance", SessionAdvanceRequest{Target: 700})
	if status != http.StatusOK {
		t.Fatalf("healthy advance: status %d: %v", status, lines)
	}
	live = append(live, lines...)

	// The disk dies. The in-flight advance fails loudly (stream error line
	// naming durability), because its journal append cannot be made durable.
	ffs.broken.Store(true)
	status, lines = postStream(t, ts.URL+"/v1/session/alpha/advance", SessionAdvanceRequest{Target: 1400})
	if status != http.StatusOK || len(lines) == 0 {
		t.Fatalf("advance on broken disk: status %d, lines %v", status, lines)
	}
	if last := lines[len(lines)-1]; !strings.Contains(last, "durability") {
		t.Fatalf("stream error does not name durability loss: %s", last)
	}

	// While degraded, further advances shed load fast: 503 + Retry-After.
	status, body, hdr := post(t, ts.URL+"/v1/session/alpha/advance", SessionAdvanceRequest{Target: 1400})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded advance: status %d: %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}

	// The degradation is loud on /metrics.
	prom := getText(t, ts.URL+"/metrics")
	if !strings.Contains(prom, "lightwsp_durability_degraded 1") {
		t.Fatal("degraded gauge not raised")
	}
	if !strings.Contains(prom, "lightwsp_storage_durability_lost_total") {
		t.Fatal("durability-lost counter family missing")
	}

	// The disk recovers: the pre-flight probe clears the flag and the
	// session converges on the canonical stream without operator action.
	ffs.broken.Store(false)
	status, lines = postStream(t, ts.URL+"/v1/session/alpha/advance", SessionAdvanceRequest{Target: 1400})
	if status != http.StatusOK {
		t.Fatalf("healed advance: status %d: %v", status, lines)
	}
	live = append(live, lines...)

	status, lines = postStream(t, ts.URL+"/v1/session/alpha/resume", SessionResumeRequest{LastSeq: 0})
	if status != http.StatusOK {
		t.Fatalf("resume: status %d", status)
	}
	requireLines(t, "stream after degradation + heal", stripResumeHeader(t, lines), ref)

	prom = getText(t, ts.URL+"/metrics")
	if !strings.Contains(prom, "lightwsp_durability_degraded 0") {
		t.Fatal("degraded gauge not cleared after heal")
	}
}

// getText fetches a URL and returns its body as text.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
