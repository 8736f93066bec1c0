package server

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lightwsp/internal/experiments"
	"lightwsp/internal/metrics"
	"lightwsp/internal/stats"
)

// endpointCode keys the request counter: one series per (endpoint, status).
type endpointCode struct {
	endpoint string
	code     int
}

// telemetry is the server-side metrics state the middleware feeds and
// /metrics renders: per-endpoint request counters and latency histograms
// (log-2 microsecond buckets — the same histogram machinery the simulator
// uses), plus a few flat counters for the ugly outcomes.
type telemetry struct {
	mu       sync.Mutex
	requests map[endpointCode]uint64
	latency  map[string]*stats.Histogram
	// snapLatency is the durable-session snapshot-write latency (µs,
	// log-2 buckets), fed by the store's OnSnapshot hook.
	snapLatency stats.Histogram

	panics          atomic.Uint64
	deadlineCancels atomic.Uint64
	flightDumps     atomic.Uint64
	sessionSnaps    atomic.Uint64
	sessionResumes  atomic.Uint64
}

func newTelemetry() *telemetry {
	return &telemetry{
		requests: map[endpointCode]uint64{},
		latency:  map[string]*stats.Histogram{},
	}
}

// observe records one finished request.
func (t *telemetry) observe(endpoint string, code int, d time.Duration) {
	t.mu.Lock()
	t.requests[endpointCode{endpoint, code}]++
	h := t.latency[endpoint]
	if h == nil {
		h = &stats.Histogram{}
		t.latency[endpoint] = h
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.Observe(uint64(us))
	t.mu.Unlock()
}

// gaugeSnapshot reads the admission gate's live occupancy: executing
// requests, requests queued for a worker, and the drain flag.
func (s *Server) gaugeSnapshot() (inFlight, queued int, draining bool) {
	held := len(s.sem)
	inFlight = held
	if inFlight > s.cfg.Workers {
		inFlight = s.cfg.Workers
	}
	queued = held - inFlight
	s.drainMu.RLock()
	draining = s.draining
	s.drainMu.RUnlock()
	return inFlight, queued, draining
}

// handleMetrics serves the Prometheus text-format exposition (0.0.4): HTTP
// request families, admission gauges, run-resolution counters by source, and
// the probe-metrics families aggregated across every resolved run.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.WriteProm(w); err != nil {
		s.log.Error("metrics exposition failed", "error", err)
	}
}

// MetricsHandler returns a bare /metrics handler for side listeners (the
// loopback debug mux serves it next to pprof).
func (s *Server) MetricsHandler() http.Handler { return http.HandlerFunc(s.handleMetrics) }

// WriteProm renders the full exposition onto w.
func (s *Server) WriteProm(w io.Writer) error {
	p := metrics.NewProm(w)

	// HTTP plane.
	s.tel.mu.Lock()
	reqs := make(map[endpointCode]uint64, len(s.tel.requests))
	for k, v := range s.tel.requests {
		reqs[k] = v
	}
	lats := make(map[string]metrics.HistSnapshot, len(s.tel.latency))
	for ep, h := range s.tel.latency {
		lats[ep] = metrics.SnapHistogram(h)
	}
	snapLat := metrics.SnapHistogram(&s.tel.snapLatency)
	s.tel.mu.Unlock()

	p.Family("lightwsp_http_requests_total", "counter", "HTTP requests served, by endpoint and status code.")
	for _, k := range sortedEndpointCodes(reqs) {
		p.Sample("lightwsp_http_requests_total", []metrics.Label{
			{Name: "endpoint", Value: k.endpoint},
			{Name: "code", Value: strconv.Itoa(k.code)},
		}, float64(reqs[k]))
	}
	p.Family("lightwsp_http_request_duration_us", "histogram", "Request latency in microseconds (log-2 buckets), by endpoint.")
	for _, ep := range sortedKeysStr(lats) {
		p.Histogram("lightwsp_http_request_duration_us", []metrics.Label{{Name: "endpoint", Value: ep}}, lats[ep])
	}

	// Admission gate.
	inFlight, queued, draining := s.gaugeSnapshot()
	gauge := func(name, help string, v float64) {
		p.Family(name, "gauge", help)
		p.Sample(name, nil, v)
	}
	gauge("lightwsp_inflight_requests", "Admitted requests currently executing.", float64(inFlight))
	gauge("lightwsp_queued_requests", "Admitted requests waiting for a worker.", float64(queued))
	gauge("lightwsp_admission_capacity", "Admission gate size (workers + queue depth).", float64(s.cfg.Workers+s.cfg.QueueDepth))
	gauge("lightwsp_draining", "1 once graceful drain began, else 0.", boolGauge(draining))

	counter := func(name, help string, v float64) {
		p.Family(name, "counter", help)
		p.Sample(name, nil, v)
	}
	counter("lightwsp_requests_admitted_total", "Requests admitted past the gate.", float64(s.admitted.Load()))
	counter("lightwsp_requests_completed_total", "Admitted requests that finished.", float64(s.completed.Load()))
	p.Family("lightwsp_requests_rejected_total", "counter", "Requests refused at admission, by reason.")
	p.Sample("lightwsp_requests_rejected_total", []metrics.Label{{Name: "reason", Value: "busy"}}, float64(s.rejectedBusy.Load()))
	p.Sample("lightwsp_requests_rejected_total", []metrics.Label{{Name: "reason", Value: "draining"}}, float64(s.rejectedDraining.Load()))
	counter("lightwsp_request_panics_total", "Handler panics recovered by the middleware.", float64(s.tel.panics.Load()))
	counter("lightwsp_deadline_cancels_total", "Requests answered 504 after their deadline fired mid-run.", float64(s.tel.deadlineCancels.Load()))
	counter("lightwsp_flight_dumps_total", "Flight-recorder dumps written.", float64(s.tel.flightDumps.Load()))

	// Durable sessions (families exposed even at zero so dashboards and
	// alerts can be written before the first session exists).
	openSessions := 0
	if s.sessions != nil {
		openSessions = len(s.sessions.Sessions())
	}
	gauge("lightwsp_sessions_open", "Durable sessions currently open.", float64(openSessions))
	counter("lightwsp_sessions_restored_total", "Sessions restored from disk at startup.", float64(s.sessionsRestored.Load()))
	counter("lightwsp_session_snapshots_total", "Durable session snapshots written.", float64(s.tel.sessionSnaps.Load()))
	counter("lightwsp_session_resumes_total", "Session streams resumed by clients.", float64(s.tel.sessionResumes.Load()))
	p.Family("lightwsp_session_snapshot_duration_us", "histogram", "Durable-snapshot write latency in microseconds (log-2 buckets).")
	p.Histogram("lightwsp_session_snapshot_duration_us", nil, snapLat)

	// Durable-storage integrity plane: the loud gauges and counters behind
	// the hostile-disk hardening (quarantine, checksum, degradation).
	degraded := false
	if s.sessions != nil {
		degraded = s.sessions.Degraded()
	}
	gauge("lightwsp_durability_degraded", "1 while the session store cannot make journal appends durable (serving 503), else 0.", boolGauge(degraded))
	sc := s.storage.Snapshot()
	counter("lightwsp_storage_quarantined_total", "Corrupt artifacts moved aside (blobs and journal tails).", float64(sc.Quarantined))
	counter("lightwsp_storage_checksum_failures_total", "Integrity-seal mismatches detected on read.", float64(sc.ChecksumFailures))
	counter("lightwsp_storage_write_errors_total", "Best-effort blob writes that failed.", float64(sc.WriteErrors))
	counter("lightwsp_storage_remove_errors_total", "Blob evictions and prunes that failed.", float64(sc.RemoveErrors))
	counter("lightwsp_storage_retries_total", "Transient-I/O retries on durable writes.", float64(sc.Retries))
	counter("lightwsp_storage_journal_truncations_total", "Torn or corrupt journal tails severed on reopen.", float64(sc.JournalTruncations))
	counter("lightwsp_storage_durability_lost_total", "Journal appends that failed past the retry budget.", float64(sc.DurabilityLost))

	// Fleet plane: ring membership, forwarding traffic and the tiered
	// store's hit ladder. Families are exposed even when solo (all zero)
	// so fleet dashboards can be written before the fleet exists.
	ringSize := 0
	if s.ring != nil {
		ringSize = s.ring.Len()
	}
	gauge("lightwsp_fleet_ring_size", "Fleet members this node routes across (0 when solo).", float64(ringSize))
	p.Family("lightwsp_fleet_forwards_total", "counter", "Requests forwarded between fleet nodes, by direction.")
	p.Sample("lightwsp_fleet_forwards_total", []metrics.Label{{Name: "direction", Value: "in"}}, float64(s.forwardsIn.Load()))
	p.Sample("lightwsp_fleet_forwards_total", []metrics.Label{{Name: "direction", Value: "out"}}, float64(s.forwardsOut.Load()))
	counter("lightwsp_fleet_forward_fallbacks_total", "Forwards served locally because every better-ranked peer was unreachable.", float64(s.forwardFallbacks.Load()))
	var l1Hits, l2Hits, tierMisses, writebacks uint64
	if s.tiered != nil {
		tc := s.tiered.Counters()
		l1Hits, l2Hits = tc.L1Hits.Load(), tc.L2Hits.Load()
		tierMisses, writebacks = tc.Misses.Load(), tc.Writebacks.Load()
	}
	p.Family("lightwsp_store_reads_total", "counter", "Tiered-store reads, by outcome (l1_hit, l2_hit, miss).")
	p.Sample("lightwsp_store_reads_total", []metrics.Label{{Name: "outcome", Value: "l1_hit"}}, float64(l1Hits))
	p.Sample("lightwsp_store_reads_total", []metrics.Label{{Name: "outcome", Value: "l2_hit"}}, float64(l2Hits))
	p.Sample("lightwsp_store_reads_total", []metrics.Label{{Name: "outcome", Value: "miss"}}, float64(tierMisses))
	counter("lightwsp_store_writebacks_total", "L2 hits promoted into the local tier.", float64(writebacks))

	// Run resolution provenance. "fleet" is a run joined from a peer's
	// published result under the cross-node singleflight lease.
	c := s.runner.Counters()
	p.Family("lightwsp_runs_total", "counter", "Simulation runs resolved, by source.")
	for _, src := range []struct {
		name string
		v    int
	}{{"fresh", c.Fresh}, {"disk_cache", c.DiskHits}, {"mem_cache", c.MemHits}, {"fleet", c.LeaseJoins}} {
		p.Sample("lightwsp_runs_total", []metrics.Label{{Name: "source", Value: src.name}}, float64(src.v))
	}

	// Probe metrics aggregated across every resolved run's manifest.
	experiments.AggregateMetrics(s.runner.Manifests()).WriteProm(p, "lightwsp_")
	return p.Err()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sortedEndpointCodes orders counter keys for a stable exposition (scrape
// diffs and golden tests both appreciate determinism).
func sortedEndpointCodes(m map[endpointCode]uint64) []endpointCode {
	keys := make([]endpointCode, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && lessEC(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func lessEC(a, b endpointCode) bool {
	if a.endpoint != b.endpoint {
		return a.endpoint < b.endpoint
	}
	return a.code < b.code
}

func sortedKeysStr[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// runLogCap bounds the recent-run registry; old records fall off the ring.
const runLogCap = 256

// runRecord is one finished request in the recent-run registry.
type runRecord struct {
	TraceID     string
	Endpoint    string
	Suite       string
	App         string
	Scheme      string
	KeyHash     string
	Source      string
	Status      int
	Error       string
	DurationMS  float64
	QueueWaitMS float64
	FlightDump  string
	FinishedAt  time.Time
}

// runLog is the bounded registry behind /v1/debug/run/{id}: a ring of the
// most recent run-shaped requests indexed by trace ID.
type runLog struct {
	mu   sync.Mutex
	ring [runLogCap]runRecord
	n    int // total records ever added
	byID map[string]int
}

func newRunLog() *runLog {
	return &runLog{byID: map[string]int{}}
}

func (l *runLog) add(rec runRecord) {
	l.mu.Lock()
	slot := l.n % runLogCap
	if old := l.ring[slot]; old.TraceID != "" && l.byID[old.TraceID] == slot {
		delete(l.byID, old.TraceID)
	}
	l.ring[slot] = rec
	l.byID[rec.TraceID] = slot
	l.n++
	l.mu.Unlock()
}

func (l *runLog) get(traceID string) (runRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, ok := l.byID[traceID]
	if !ok {
		return runRecord{}, false
	}
	rec := l.ring[slot]
	return rec, rec.TraceID == traceID
}

// noteRun records a finished run-shaped request (one that resolved a
// workload or carried a flight recorder) into the registry; introspection
// requests stay out.
func (s *Server) noteRun(ri *reqInfo, status int, d time.Duration) {
	if ri.suite == "" && ri.keyHash == "" && ri.flight == nil {
		return
	}
	rec := runRecord{
		TraceID:     ri.traceID,
		Endpoint:    ri.endpoint,
		Suite:       ri.suite,
		App:         ri.app,
		Scheme:      ri.scheme,
		KeyHash:     ri.keyHash,
		Source:      ri.source,
		Status:      status,
		DurationMS:  float64(d.Microseconds()) / 1000,
		QueueWaitMS: float64(ri.queueWait.Microseconds()) / 1000,
		FlightDump:  ri.flightDump,
		FinishedAt:  time.Now(),
	}
	if ri.err != nil {
		rec.Error = ri.err.Error()
	}
	s.runs.add(rec)
}

// handleDebugRun serves one recent run's record — identity, outcome, timing,
// flight-dump path — plus the provenance manifest when the run key is known
// to the Runner.
func (s *Server) handleDebugRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.runs.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "no recent run with trace ID " + id})
		return
	}
	resp := DebugRunResponse{
		TraceID:     rec.TraceID,
		Endpoint:    rec.Endpoint,
		Suite:       rec.Suite,
		App:         rec.App,
		Scheme:      rec.Scheme,
		KeyHash:     rec.KeyHash,
		Source:      rec.Source,
		Status:      rec.Status,
		Error:       rec.Error,
		DurationMS:  rec.DurationMS,
		QueueWaitMS: rec.QueueWaitMS,
		FlightDump:  rec.FlightDump,
		FinishedAt:  rec.FinishedAt.UTC().Format(time.RFC3339Nano),
	}
	if rec.KeyHash != "" {
		if man, found := s.runner.ManifestByHash(rec.KeyHash); found {
			resp.Manifest = &man
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
