package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lightwsp/internal/obs"
)

// logBuffer is a goroutine-safe sink for the server's slog output (slog
// handlers serialize writes, but tests also read while handlers write).
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// postTraced posts with an X-LightWSP-Trace header.
func postTraced(t *testing.T, url, trace string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestTraceIDPropagation is the correlation contract end to end: the
// client's trace ID comes back on the response, lands in the access log, in
// the run's provenance manifest, and is queryable via /v1/debug/run/{id}.
func TestTraceIDPropagation(t *testing.T) {
	logs := &logBuffer{}
	log, err := obs.NewLogger(logs, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Logger: log})

	const trace = "e2e-trace-0001"
	resp, body := postTraced(t, ts.URL+"/v1/run", trace, fuzzStRun)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Fatalf("response %s = %q, want %q", obs.TraceHeader, got, trace)
	}

	// The debug endpoint returns the run record with the manifest, and the
	// manifest carries the resolving request's trace ID.
	var dbg DebugRunResponse
	if st := get(t, ts.URL+"/v1/debug/run/"+trace, &dbg); st != http.StatusOK {
		t.Fatalf("debug run status %d", st)
	}
	if dbg.TraceID != trace || dbg.Status != http.StatusOK || !strings.EqualFold(dbg.Suite, "cpu2006") {
		t.Fatalf("unexpected debug record %+v", dbg)
	}
	if dbg.Manifest == nil {
		t.Fatal("debug record missing the run manifest")
	}
	if dbg.Manifest.TraceID != trace {
		t.Fatalf("manifest TraceID = %q, want %q", dbg.Manifest.TraceID, trace)
	}
	if dbg.Source != "fresh" {
		t.Fatalf("source = %q, want fresh", dbg.Source)
	}

	// Access log: one structured line naming the trace and endpoint.
	if out := logs.String(); !strings.Contains(out, trace) || !strings.Contains(out, `"/v1/run"`) {
		t.Fatalf("access log missing trace/endpoint:\n%s", out)
	}

	// An unknown trace ID is a clean 404.
	if st := get(t, ts.URL+"/v1/debug/run/nope", nil); st != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", st)
	}
}

// TestGeneratedTraceID: requests without (or with an invalid) inbound trace
// header get a generated identity echoed back.
func TestGeneratedTraceID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, _ := postTraced(t, ts.URL+"/v1/compile", "", CompileRequest{Suite: "cpu2006", App: "fuzz-st"})
	id := resp.Header.Get(obs.TraceHeader)
	if !obs.ValidTraceID(id) {
		t.Fatalf("generated trace ID %q not valid", id)
	}
	resp2, _ := postTraced(t, ts.URL+"/v1/compile", "bad id with spaces", CompileRequest{Suite: "cpu2006", App: "fuzz-st"})
	id2 := resp2.Header.Get(obs.TraceHeader)
	if !obs.ValidTraceID(id2) || id2 == "bad id with spaces" {
		t.Fatalf("invalid inbound trace should be replaced, got %q", id2)
	}
}

// TestPanicRecoveryMiddleware: a panicking handler becomes a 500 with the
// stack in the log, not a torn connection — and the panic counter ticks.
func TestPanicRecoveryMiddleware(t *testing.T) {
	logs := &logBuffer{}
	log, err := obs.NewLogger(logs, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Logger: log})
	s.hookAdmitted = func(r *http.Request) {
		if r.URL.Path == "/v1/run" {
			panic("synthetic telemetry-test panic")
		}
	}

	const trace = "panic-trace-01"
	resp, body := postTraced(t, ts.URL+"/v1/run", trace, fuzzStRun)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("500 body is not JSON: %v: %s", err, body)
	}
	if s.tel.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", s.tel.panics.Load())
	}
	out := logs.String()
	if !strings.Contains(out, "synthetic telemetry-test panic") ||
		!strings.Contains(out, trace) ||
		!strings.Contains(out, "goroutine") {
		t.Fatalf("panic log missing message/trace/stack:\n%s", out)
	}
}

// TestDeadlineLeavesFlightDump: a run canceled by its deadline answers 504
// and leaves an atomic flight-recorder dump named by its trace ID.
func TestDeadlineLeavesFlightDump(t *testing.T) {
	flightDir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, FlightDir: flightDir})

	const trace = "deadline-trace-1"
	// hmmer runs millions of cycles; a 1ms deadline always fires mid-run.
	resp, body := postTraced(t, ts.URL+"/v1/run", trace,
		RunRequest{Suite: "cpu2006", App: "hmmer", TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}

	path := filepath.Join(flightDir, trace+".flight.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	var d obs.FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("flight dump does not parse: %v", err)
	}
	if d.TraceID != trace || d.Reason != "deadline" {
		t.Fatalf("dump header %+v, want trace %q reason deadline", d, trace)
	}
	if d.App != "hmmer" {
		t.Fatalf("dump app %q, want hmmer", d.App)
	}
	if d.Error == "" {
		t.Fatal("dump should carry the cancellation error")
	}
	if s.tel.flightDumps.Load() != 1 || s.tel.deadlineCancels.Load() != 1 {
		t.Fatalf("counters: dumps %d cancels %d, want 1/1",
			s.tel.flightDumps.Load(), s.tel.deadlineCancels.Load())
	}

	// The debug record points at the dump.
	var dbg DebugRunResponse
	if st := get(t, ts.URL+"/v1/debug/run/"+trace, &dbg); st != http.StatusOK {
		t.Fatalf("debug run status %d", st)
	}
	if dbg.FlightDump != path || dbg.Status != http.StatusGatewayTimeout {
		t.Fatalf("debug record %+v, want dump %q status 504", dbg, path)
	}
}

// TestMetricsEndpoint: /metrics serves a parsable exposition whose counters
// reflect the traffic that preceded the scrape.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	for i := 0; i < 2; i++ {
		resp, body := postTraced(t, ts.URL+"/v1/run", "", fuzzStRun)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Shape: every TYPE once, every non-comment line a sample, histogram
	// series under their family.
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			if types[f[2]] {
				t.Fatalf("family %s declared twice", f[2])
			}
			types[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Fatalf("bad sample line %q", line)
		}
	}
	for _, want := range []string{
		"lightwsp_http_requests_total",
		"lightwsp_http_request_duration_us",
		"lightwsp_inflight_requests",
		"lightwsp_runs_total",
		"lightwsp_probe_events_total",
		"lightwsp_region_stores",
	} {
		if !types[want] {
			t.Fatalf("missing family %s in exposition:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `lightwsp_http_requests_total{endpoint="/v1/run",code="200"} 2`) {
		t.Fatalf("request counter did not reach 2:\n%s", text)
	}
	if !strings.Contains(text, `lightwsp_runs_total{source="fresh"} 1`) {
		t.Fatalf("fresh-run counter should be 1 (singleflight + memo):\n%s", text)
	}
}

// TestStatsLiveGauges: while a request holds an admission slot, /stats
// reports it in_flight.
func TestStatsLiveGauges(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	hold := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.hookAdmitted = func(r *http.Request) {
		if r.URL.Path == "/v1/run" {
			once.Do(func() { close(entered) })
			<-hold
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, ts.URL+"/v1/run", fuzzStRun)
	}()
	<-entered

	var st StatsResponse
	if code := get(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.InFlight < 1 {
		t.Fatalf("in_flight = %d, want >= 1 while a run is admitted", st.InFlight)
	}
	close(hold)
	<-done
}

// TestStreamCarriesTrace: the NDJSON terminal line names the trace ID so a
// saved stream is correlatable without its HTTP headers.
func TestStreamCarriesTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const trace = "stream-trace-01"
	resp, body := postTraced(t, ts.URL+"/v1/run/stream", trace, fuzzStRun)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Fatalf("stream response %s = %q", obs.TraceHeader, got)
	}
	var last streamEvent
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line does not parse: %v: %s", err, sc.Text())
		}
	}
	if last.Type != "stats" || last.Trace != trace {
		t.Fatalf("terminal line %+v, want type stats trace %q", last, trace)
	}
}

// TestDrainInterruptedDumpsFlights: a drain that times out with a run still
// executing dumps that run's flight recorder before giving up — the
// SIGTERM-while-inflight path.
func TestDrainInterruptedDumpsFlights(t *testing.T) {
	flightDir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, FlightDir: flightDir})

	const trace = "drain-victim-01"
	done, release := runInFlight(t, s, ts.URL, trace, RunRequest{Suite: "cpu2006", App: "hmmer", TimeoutMS: 2000})

	d := drainInterrupted(t, s, flightDir, trace, release)
	if d.Reason != "drain-interrupted" || d.TraceID != trace {
		t.Fatalf("dump header %+v, want reason drain-interrupted trace %q", d, trace)
	}
	<-done // the run ends once the pool is released; cleanup then closes ts
}

// TestDrainDumpsFlightUnderSharedTrace: two in-flight requests may share a
// trace ID (client.WithTrace, a retry). The one that finishes first must not
// unregister the other's flight recorder, so an interrupted drain still
// dumps the run that is still executing.
func TestDrainDumpsFlightUnderSharedTrace(t *testing.T) {
	flightDir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, FlightDir: flightDir})
	warm := RunRequest{Suite: "cpu2006", App: "fuzz-st"}
	if st, body, _ := post(t, ts.URL+"/v1/run", warm); st != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", st, body)
	}

	const trace = "shared-trace-01"
	done, release := runInFlight(t, s, ts.URL, trace, RunRequest{Suite: "cpu2006", App: "lbm", TimeoutMS: 2000})
	// A warm read under the same trace ID starts and finishes meanwhile.
	if resp, body := postTraced(t, ts.URL+"/v1/run", trace, warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm read: status %d: %s", resp.StatusCode, body)
	}

	d := drainInterrupted(t, s, flightDir, trace, release)
	if d.Reason != "drain-interrupted" || d.TraceID != trace || d.App != "lbm" {
		t.Fatalf("dump header %+v, want reason drain-interrupted trace %q app lbm", d, trace)
	}
	<-done
}

// runInFlight holds every slot of s's worker pool, posts req under trace
// from a goroutine, and returns once the request's flight recorder is
// registered as in flight. The request then waits for a slot in
// Pool.DoCtx, so it stays in flight however fast its run would be, until
// release frees the pool. done closes when the request completes.
func runInFlight(t *testing.T, s *Server, url, trace string, req RunRequest) (done <-chan struct{}, release func()) {
	t.Helper()
	held, free := make(chan struct{}), make(chan struct{})
	for i := 0; i < s.pool.Size(); i++ {
		go s.pool.Do(func() {
			held <- struct{}{}
			<-free
		})
	}
	for i := 0; i < s.pool.Size(); i++ {
		<-held
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		body, _ := json.Marshal(req)
		hreq, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		hreq.Header.Set(obs.TraceHeader, trace)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Errorf("run request: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !inflightTrace(s, trace) {
		if time.Now().After(deadline) {
			close(free)
			t.Fatal("run never registered a flight recorder")
		}
		time.Sleep(time.Millisecond)
	}
	return finished, func() { close(free) }
}

// inflightTrace reports whether a flight recorder with the given trace ID
// is registered as in flight.
func inflightTrace(s *Server, trace string) bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	for rec := range s.activeFlights {
		if rec.TraceID() == trace {
			return true
		}
	}
	return false
}

// drainInterrupted drains s with a 50 ms deadline that the request
// runInFlight holds outlives, releases the pool after the drain, and
// returns the flight dump left under trace.
func drainInterrupted(t *testing.T, s *Server, flightDir, trace string, release func()) obs.FlightDump {
	t.Helper()
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain should report the interruption")
	}
	data, err := os.ReadFile(filepath.Join(flightDir, trace+".flight.json"))
	if err != nil {
		t.Fatalf("drain-interrupted dump missing: %v", err)
	}
	var d obs.FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}
