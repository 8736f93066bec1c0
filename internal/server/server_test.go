package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/workload"
)

// newTestServer boots a Server with its HTTP front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON request and returns the status and body. Transport
// failures report through t.Errorf (post is called from client goroutines,
// where Fatal is off-limits) and return status -1.
func post(t *testing.T, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Errorf("marshal request: %v", err)
		return -1, nil, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Errorf("post %s: %v", url, err)
		return -1, nil, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read response: %v", err)
		return -1, nil, nil
	}
	return resp.StatusCode, out, resp.Header
}

func get(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// fuzzStRun is the cheapest real simulation request: the miniature
// single-threaded fuzz profile under LightWSP.
var fuzzStRun = RunRequest{Suite: "cpu2006", App: "fuzz-st", Scheme: "lightwsp"}

// TestConcurrentRunsShareOneSimulation is the singleflight contract: many
// clients requesting the same run concurrently get byte-identical responses
// and the server executes exactly one fresh simulation.
func TestConcurrentRunsShareOneSimulation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, _ := post(t, ts.URL+"/v1/run", fuzzStRun)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d response differs from client 0:\n%s\n%s", i, bodies[0], bodies[i])
		}
	}

	// The served stats must be byte-identical to a direct library run of
	// the same workload — the server adds sharing, never skew.
	p, ok := workload.Find("cpu2006", "fuzz-st")
	if !ok {
		t.Fatal("fuzz-st profile missing")
	}
	direct, err := experiments.NewRunner().Run(p, core.Scheme(), compiler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	var resp RunResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(resp.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served stats diverge from a direct run:\n%s\n%s", got, want)
	}

	var st StatsResponse
	// release() runs after the response body is written, so the completed
	// counter may lag the client's read by a moment.
	waitFor(t, func() bool {
		get(t, ts.URL+"/stats", &st)
		return st.Completed == clients
	})
	if st.FreshRuns != 1 {
		t.Fatalf("fresh runs = %d, want exactly 1 (got stats %+v)", st.FreshRuns, st)
	}
	if st.MemCacheHits != clients-1 {
		t.Fatalf("mem hits = %d, want %d", st.MemCacheHits, clients-1)
	}
	if st.Admitted != clients {
		t.Fatalf("admission accounting: %+v", st)
	}
}

// TestWarmRunAllocations guards the memo-hit path of /v1/run: after one
// cold request a warm read allocates little beyond the response it sends,
// and what it sends is the cold response byte for byte.
func TestWarmRunAllocations(t *testing.T) {
	h := New(Config{Workers: 1}).Handler()
	run := func(req []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(req)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	key := []byte(`{"suite":"cpu2006","app":"fuzz-st"}`)
	cold := run(key)
	if warm := run(key); !bytes.Equal(warm, cold) {
		t.Fatalf("warm response differs from the cold one:\n%s\n%s", warm, cold)
	}
	if other := run([]byte(`{"suite":"stamp","app":"fuzz-mt"}`)); bytes.Equal(other, cold) {
		t.Fatal("two run keys got the same body")
	}

	const reads = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		run(key)
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reads
	t.Logf("%d B allocated per warm read", perRead)
	if perRead >= 64<<10 {
		t.Fatalf("a warm /v1/run allocates %d B, want < 64 KiB", perRead)
	}
}

// TestAdmissionControlRejectsOverCapacity pins the 429 path: with capacity
// Workers+QueueDepth = 2, a third concurrent request is turned away with
// Retry-After while the first two are still running.
func TestAdmissionControlRejectsOverCapacity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	admitted := make(chan struct{}, 2)
	release := make(chan struct{})
	s.hookAdmitted = func(*http.Request) {
		admitted <- struct{}{}
		<-release
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, _ := post(t, ts.URL+"/v1/run", fuzzStRun)
			if status != http.StatusOK {
				t.Errorf("admitted request failed: %d: %s", status, body)
			}
		}()
	}
	// Both capacity slots are held inside the hook; the gate is full.
	<-admitted
	<-admitted

	status, body, hdr := post(t, ts.URL+"/v1/run", fuzzStRun)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429: %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	close(release)
	wg.Wait()

	var st StatsResponse
	get(t, ts.URL+"/stats", &st)
	if st.RejectedBusy != 1 || st.Admitted != 2 {
		t.Fatalf("admission accounting: %+v", st)
	}
}

// TestGracefulDrain pins the shutdown sequence: Drain refuses new work with
// 503, lets the in-flight request finish, and returns once it has.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	admitted := make(chan struct{}, 1)
	release := make(chan struct{})
	s.hookAdmitted = func(*http.Request) {
		admitted <- struct{}{}
		<-release
	}

	inflightDone := make(chan []byte, 1)
	go func() {
		status, body, _ := post(t, ts.URL+"/v1/run", fuzzStRun)
		if status != http.StatusOK {
			t.Errorf("in-flight request failed during drain: %d: %s", status, body)
		}
		inflightDone <- body
	}()
	<-admitted

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// The drain flag flips synchronously; new work and the health probe
	// must observe it while the in-flight request is still running.
	waitFor(t, func() bool {
		return get(t, ts.URL+"/healthz", nil) == http.StatusServiceUnavailable
	})
	// A new request is refused at the gate, before the admission hook.
	if status, body, _ := post(t, ts.URL+"/v1/run", fuzzStRun); status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503: %s", status, body)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain returned before in-flight work finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-inflightDone

	var st StatsResponse
	get(t, ts.URL+"/stats", &st)
	if !st.Draining || st.RejectedDraining != 1 || st.Completed != 1 {
		t.Fatalf("drain accounting: %+v", st)
	}
}

// TestDrainHonorsContext pins the bounded-drain path: a drain context that
// expires with work still in flight returns its error instead of hanging.
func TestDrainHonorsContext(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	admitted := make(chan struct{}, 1)
	release := make(chan struct{})
	s.hookAdmitted = func(*http.Request) {
		admitted <- struct{}{}
		<-release
	}
	go post(t, ts.URL+"/v1/run", fuzzStRun)
	<-admitted

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain error = %v, want DeadlineExceeded", err)
	}
	close(release)
}

// TestDeadlineCancelsSimulation pins the 504 path: a 1 ms deadline on a
// multi-million-cycle benchmark expires mid-simulation, the cancellation
// propagates into the cycle loop, and the run is not cached.
func TestDeadlineCancelsSimulation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	req := RunRequest{Suite: "cpu2006", App: "hmmer", Scheme: "lightwsp", TimeoutMS: 1}
	status, body, _ := post(t, ts.URL+"/v1/run", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline run: status %d, want 504: %s", status, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("504 body not an error envelope: %s", body)
	}

	var st StatsResponse
	get(t, ts.URL+"/stats", &st)
	if st.FreshRuns != 0 || st.DiskCacheHits != 0 {
		t.Fatalf("canceled run was cached: %+v", st)
	}
}

// TestErrorMapping pins the 404/400 request-validation answers.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	status, body, _ := post(t, ts.URL+"/v1/run", RunRequest{Suite: "cpu2006", App: "no-such-app"})
	if status != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d: %s", status, body)
	}
	status, body, _ = post(t, ts.URL+"/v1/run", RunRequest{Suite: "cpu2006", App: "fuzz-st", Scheme: "no-such-scheme"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown scheme: status %d: %s", status, body)
	}
	status, body, _ = post(t, ts.URL+"/v1/experiment", ExperimentRequest{Name: "no-such-experiment"})
	if status != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d: %s", status, body)
	}
}

// TestCompileEndpoint sanity-checks the static-stats surface.
func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	status, body, _ := post(t, ts.URL+"/v1/compile", CompileRequest{Suite: "cpu2006", App: "fuzz-st"})
	if status != http.StatusOK {
		t.Fatalf("compile: status %d: %s", status, body)
	}
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Boundaries == 0 || resp.StoreThreshold == 0 {
		t.Fatalf("compile stats empty: %+v", resp)
	}
}

// TestRunWithFailureEndpoint runs a crash/recover round trip and demands a
// consistent recovered image.
func TestRunWithFailureEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	status, body, _ := post(t, ts.URL+"/v1/run-with-failure",
		FailureRequest{Suite: "cpu2006", App: "fuzz-st", FailCycle: 200})
	if status != http.StatusOK {
		t.Fatalf("run-with-failure: status %d: %s", status, body)
	}
	var resp FailureResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Failed {
		t.Fatalf("no failure injected at cycle 200: %+v", resp)
	}
	if !resp.Consistent {
		t.Fatalf("recovered image inconsistent: %+v", resp)
	}
}

// TestStreamEndpoint pins the NDJSON contract: every line is valid JSON
// with a known type, and the stream terminates with a stats line.
func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	status, body, hdr := post(t, ts.URL+"/v1/run/stream", fuzzStRun)
	if status != http.StatusOK {
		t.Fatalf("stream: status %d: %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	var last streamEvent
	for i, ln := range lines {
		var ev streamEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d not JSON: %q: %v", i, ln, err)
		}
		switch ev.Type {
		case "event", "progress", "stats":
		default:
			t.Fatalf("line %d has unknown type %q", i, ev.Type)
		}
		last = ev
	}
	if last.Type != "stats" || last.Cycle == 0 {
		t.Fatalf("stream did not end with a stats line: %+v", last)
	}
}

// TestHealthzAndExperimentsList covers the read-only surface.
func TestHealthzAndExperimentsList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	if s := get(t, ts.URL+"/healthz", nil); s != http.StatusOK {
		t.Fatalf("healthz status %d", s)
	}
	var list []ExperimentInfo
	if s := get(t, ts.URL+"/v1/experiments", &list); s != http.StatusOK {
		t.Fatalf("experiments status %d", s)
	}
	names := map[string]bool{}
	for _, e := range list {
		names[e.Name] = true
	}
	for _, want := range []string{"fig7", "tab2", "recovery", "crashfuzz"} {
		if !names[want] {
			t.Fatalf("experiment listing missing %q: %v", want, list)
		}
	}
}

// TestDiskCacheAcrossServers proves two server processes share results
// through the cache directory, and that drain flushes the manifest.
func TestDiskCacheAcrossServers(t *testing.T) {
	dir := t.TempDir()

	_, ts1 := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	status, body1, _ := post(t, ts1.URL+"/v1/run", fuzzStRun)
	if status != http.StatusOK {
		t.Fatalf("first server run: %d: %s", status, body1)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	status, body2, _ := post(t, ts2.URL+"/v1/run", fuzzStRun)
	if status != http.StatusOK {
		t.Fatalf("second server run: %d: %s", status, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("disk-cached response differs:\n%s\n%s", body1, body2)
	}
	var st StatsResponse
	get(t, ts2.URL+"/stats", &st)
	if st.FreshRuns != 0 || st.DiskCacheHits != 1 {
		t.Fatalf("second server did not hit the disk cache: %+v", st)
	}

	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var mans []json.RawMessage
	data := readFile(t, dir+"/serve-manifest.json")
	if err := json.Unmarshal(data, &mans); err != nil || len(mans) != 1 {
		t.Fatalf("drain manifest: %v entries, err %v", len(mans), err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
