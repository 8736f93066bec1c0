package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lightwsp/client"
	"lightwsp/internal/server"
	"lightwsp/internal/wsperr"
)

// newServer boots a real serving daemon behind httptest and returns a
// client pointed at it — the client package's contract is exercised
// end-to-end against the actual API surface, not a mock of it.
func newServer(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

func TestRunRoundTrip(t *testing.T) {
	c := newServer(t, server.Config{Workers: 2, CacheDir: t.TempDir()})
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	first, err := c.Run(ctx, "cpu2006", "fuzz-st", "lightwsp")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The server answers with the canonical profile spelling ("CPU2006").
	if !strings.EqualFold(first.Suite, "cpu2006") || first.App != "fuzz-st" || first.Scheme != "lightwsp" {
		t.Fatalf("unexpected identity: %+v", first)
	}
	if first.KeyHash == "" || len(first.Stats) == 0 {
		t.Fatalf("missing key hash or stats: %+v", first)
	}

	// The deterministic-replay contract, observed through the client: the
	// second call is served from cache with byte-identical stats.
	second, err := c.Run(ctx, "cpu2006", "fuzz-st", "lightwsp")
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(first.Stats, second.Stats) {
		t.Fatalf("cached stats differ:\n%s\n%s", first.Stats, second.Stats)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.FreshRuns != 1 || st.FreshRuns+st.DiskCacheHits+st.MemCacheHits+st.LeaseJoins < 2 {
		t.Fatalf("expected one fresh run and one cache hit, got %+v", st)
	}
}

func TestErrorsMapOntoSentinels(t *testing.T) {
	c := newServer(t, server.Config{Workers: 1})
	ctx := context.Background()

	_, err := c.Run(ctx, "cpu2006", "no-such-app", "")
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown workload: want ErrNotFound, got %v", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Message == "" {
		t.Fatalf("want populated *APIError, got %#v", err)
	}

	// Sessions are off: session calls answer 503 → ErrUnavailable.
	if _, err := c.Session(ctx, "ghost"); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("sessions disabled: want ErrUnavailable, got %v", err)
	}
}

// TestDeadlineMapsToCanceled pins the cross-cutting error contract: a 504
// from the server classifies as wsperr.ErrCanceled, exactly like a local
// deadline inside the harness would.
func TestDeadlineMapsToCanceled(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprint(w, `{"error":"deadline exceeded"}`)
	}))
	defer ts.Close()
	_, err := client.New(ts.URL).Run(context.Background(), "cpu2006", "fuzz-st", "")
	if !errors.Is(err, wsperr.ErrCanceled) {
		t.Fatalf("504: want wsperr.ErrCanceled, got %v", err)
	}
}

func TestWithRetryHonorsBackpressure(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"saturated"}`)
			return
		}
		fmt.Fprint(w, `{"suite":"cpu2006","app":"fuzz-st","scheme":"lightwsp","key_hash":"h","stats":{}}`)
	}))
	defer ts.Close()
	c := client.New(ts.URL)

	// Without retries the first 429 surfaces as ErrBusy with the hint.
	_, err := c.Run(context.Background(), "cpu2006", "fuzz-st", "")
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	calls.Store(0)

	res, err := c.Run(context.Background(), "cpu2006", "fuzz-st", "", client.WithRetry(3))
	if err != nil {
		t.Fatalf("retried run: %v", err)
	}
	if res.KeyHash != "h" || calls.Load() != 3 {
		t.Fatalf("want success on attempt 3, got %+v after %d calls", res, calls.Load())
	}
}

func TestWithTraceThreadsThrough(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-LightWSP-Trace", r.Header.Get("X-LightWSP-Trace"))
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"nope"}`)
	}))
	defer ts.Close()
	_, err := client.New(ts.URL).Run(context.Background(), "a", "b", "",
		client.WithTrace("trace-123"))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Trace != "trace-123" {
		t.Fatalf("want APIError carrying the pinned trace, got %v", err)
	}
}

func TestRunStream(t *testing.T) {
	c := newServer(t, server.Config{Workers: 2})
	var events []client.StreamEvent
	err := c.RunStream(context.Background(), "cpu2006", "fuzz-st", "lightwsp",
		func(ev client.StreamEvent) error {
			if len(ev.Raw) == 0 {
				t.Errorf("event without raw bytes: %+v", ev)
			}
			events = append(events, ev)
			return nil
		})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	if last := events[len(events)-1]; last.Type != "stats" {
		t.Fatalf("stream should end with the stats line, got %+v", last)
	}
}

func TestStreamTerminalError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"type":"event","seq":1}`)
		fmt.Fprintln(w, `{"type":"error","error":"machine wedged","trace":"t1"}`)
	}))
	defer ts.Close()
	var seen int
	err := client.New(ts.URL).RunStream(context.Background(), "a", "b", "",
		func(client.StreamEvent) error { seen++; return nil })
	var se *client.StreamError
	if !errors.As(err, &se) || se.Message != "machine wedged" || se.Trace != "t1" {
		t.Fatalf("want in-band *StreamError, got %v", err)
	}
	if seen != 1 {
		t.Fatalf("fn should have seen the 1 event before the error, saw %d", seen)
	}
}

// TestSessionLifecycle drives a durable session end to end through the
// public client: create, advance in steps, resume byte-identically from
// seq 0, then delete.
func TestSessionLifecycle(t *testing.T) {
	c := newServer(t, server.Config{Workers: 2, SessionDir: t.TempDir()})
	ctx := context.Background()
	spec := client.SessionSpec{Suite: "cpu2006", App: "fuzz-st", Scheme: "lightwsp", SnapshotEvery: 600}

	created, err := c.CreateSession(ctx, "alpha", spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if created.ID != "alpha" || created.Spec.SnapshotEvery != 600 {
		t.Fatalf("unexpected created status: %+v", created)
	}

	var live [][]byte
	for _, target := range []uint64{1300, 10000} {
		err := c.Advance(ctx, "alpha", target, func(ev client.StreamEvent) error {
			live = append(live, ev.Raw)
			return nil
		})
		if err != nil {
			t.Fatalf("advance to %d: %v", target, err)
		}
	}
	if len(live) == 0 {
		t.Fatal("advance streamed nothing")
	}

	// Re-issued advance past the end: no events, no error.
	if err := c.Advance(ctx, "alpha", 10000, func(client.StreamEvent) error {
		t.Error("re-issued advance streamed an event")
		return nil
	}); err != nil {
		t.Fatalf("re-issued advance: %v", err)
	}

	st, err := c.Session(ctx, "alpha")
	if err != nil || !st.Done || st.Seq == 0 {
		t.Fatalf("status after advance: %+v, %v", st, err)
	}
	if list, err := c.Sessions(ctx); err != nil || len(list) != 1 || list[0].ID != "alpha" {
		t.Fatalf("list: %+v, %v", list, err)
	}

	// Resume from 0 replays the full stream byte-identically after one
	// unnumbered header line.
	var replay [][]byte
	err = c.Resume(ctx, "alpha", 0, func(ev client.StreamEvent) error {
		if ev.Type == "resume" {
			return nil
		}
		replay = append(replay, ev.Raw)
		return nil
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(replay) != len(live) {
		t.Fatalf("resume replayed %d events, live stream had %d", len(replay), len(live))
	}
	for i := range live {
		if !bytes.Equal(live[i], replay[i]) {
			t.Fatalf("event %d differs:\nlive:   %s\nreplay: %s", i, live[i], replay[i])
		}
	}

	if err := c.DeleteSession(ctx, "alpha"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Session(ctx, "alpha"); !errors.Is(err, client.ErrNotFound) &&
		!errors.Is(err, client.ErrSessionClosed) {
		t.Fatalf("deleted session lookup: want not-found/closed, got %v", err)
	}
}

func TestCrashfuzz(t *testing.T) {
	c := newServer(t, server.Config{Workers: 2, CacheDir: t.TempDir()})
	res, err := c.Crashfuzz(context.Background(),
		client.CrashfuzzSpec{Suite: "cpu2006", App: "fuzz-st", Cuts: 1, Seed: 1},
		client.WithDeadline(2*time.Minute))
	if err != nil {
		t.Fatalf("crashfuzz: %v", err)
	}
	if !strings.EqualFold(res.Suite, "cpu2006") || res.App != "fuzz-st" || res.Injections == 0 {
		t.Fatalf("unexpected campaign result: %+v", res)
	}
	if res.Divergences != 0 {
		t.Fatalf("lightwsp diverged under crash fuzzing: %+v", res)
	}
	// Every cycle of fuzz-st is a schedule, and far fewer are distinct
	// crash states.
	if res.SharedTails == 0 {
		t.Fatalf("no shared tails reported over %d schedules: %+v", res.CyclesCovered, res)
	}
	var round map[string]any
	if err := json.Unmarshal(res.Raw, &round); err != nil {
		t.Fatalf("raw result not JSON: %v", err)
	}
}

func TestExperimentsListing(t *testing.T) {
	c := newServer(t, server.Config{Workers: 1})
	list, err := c.Experiments(context.Background())
	if err != nil || len(list) == 0 {
		t.Fatalf("experiments: %v (%d entries)", err, len(list))
	}
	for _, e := range list {
		if e.Name == "" {
			t.Fatalf("unnamed experiment in listing: %+v", list)
		}
	}
}
