package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lightwsp/internal/experiments"
	"lightwsp/internal/fleet"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/obs"
	"lightwsp/internal/wsperr"
)

// Config tunes a Server. The zero value is usable: GOMAXPROCS workers, a
// queue twice that deep, no disk cache, no default request deadline.
type Config struct {
	// Workers sizes the shared simulation worker pool (minimum 1;
	// default GOMAXPROCS). One pool governs every kind of work the server
	// does — cached runs, streaming runs, failure injection, fuzzing.
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond the Workers executing ones (default 2×Workers). Requests
	// beyond Workers+QueueDepth are answered 429 with Retry-After.
	QueueDepth int
	// CacheDir roots the persistent result/verdict cache; empty disables.
	CacheDir string
	// RequestTimeout bounds every request without its own timeout_ms
	// (zero: unbounded).
	RequestTimeout time.Duration
	// MaxRunCycles bounds any single simulation (zero:
	// experiments.MaxRunCycles).
	MaxRunCycles uint64
	// Progress, when non-nil, receives the runner's per-run progress lines.
	Progress func(string)
	// Logger receives the server's structured logs (access lines, run
	// lifecycle, panics, flight-recorder dumps). Nil discards them.
	Logger *slog.Logger
	// FlightDir is where flight-recorder dumps land; empty defaults to
	// CacheDir/flightrec when a cache directory is set, else dumps are off.
	FlightDir string
	// TimelineDir, when set, makes every fresh run export a Chrome
	// trace-event timeline (tagged with the request's trace ID) there.
	TimelineDir string
	// SessionDir roots the durable-session store (journals + snapshot
	// blobs); empty disables the /v1/session endpoints. On startup every
	// session found there is restored from its newest durable snapshot and
	// journal, so sessions survive server restarts and power loss.
	SessionDir string
	// SnapshotEvery is the default snapshot cadence (in session-total
	// cycles) for sessions created without one; 0 leaves cadence snapshots
	// to the client's spec.
	SnapshotEvery uint64
	// SnapshotInterval, when positive, forces a durable snapshot of every
	// idle session on this wall-clock period, bounding replay cost after a
	// hard crash even when clients stall between cadence points.
	SnapshotInterval time.Duration
	// SessionFS, when non-nil, replaces the host filesystem beneath the
	// session store — tests and fault campaigns inject hostfs.NewMem/Inject
	// stacks here. Nil uses the real disk.
	SessionFS hostfs.FS
	// FleetSelf is this node's base URL exactly as peers and the load
	// balancer reach it (e.g. "http://10.0.0.3:8080"). Empty means the
	// node serves solo; set it together with FleetPeers to join a fleet.
	FleetSelf string
	// FleetPeers is the full fleet membership, FleetSelf included. Every
	// node is configured with the same list; a request whose routing key
	// hashes to another member is forwarded there (one hop, loop-guarded
	// by the X-LightWSP-Forwarded header).
	FleetPeers []string
	// L2 is the shared second storage tier behind the local disk cache:
	// results and session snapshots written locally also publish here,
	// and local misses read through it — the mechanism that makes a
	// fleet's caches coherent. Typically experiments.NewBlobCache over a
	// shared directory or experiments.NewRemoteStore over a peer node.
	L2 experiments.Store
}

// Server is the HTTP serving layer over one process-wide Runner: every
// request shares its memo table, disk cache and worker pool, so concurrent
// clients asking for the same simulation share a single execution.
//
// Construct with New, expose via Handler, and retire with Drain. A Server
// is safe for concurrent use.
type Server struct {
	cfg    Config
	runner *experiments.Runner
	pool   *experiments.Pool
	mux    *http.ServeMux

	// Storage tiers: localBlobs is the node's own disk cache (nil without
	// a cache directory) — also what the /v1/blob peer API serves; tiered
	// composes it with Config.L2 (nil when no L2 is configured); blobs is
	// whichever of the two fuzzing verdicts should go through.
	localBlobs *experiments.BlobCache
	tiered     *experiments.TieredStore
	blobs      experiments.Store

	// Fleet: the rendezvous ring over FleetPeers (nil when solo), this
	// node's own identity on it, and the client forwards ride. The client
	// has no timeout — forwards carry NDJSON streams that legitimately
	// run for minutes; the request context still bounds every forward.
	ring             *fleet.Ring
	self             string
	fleetHC          *http.Client
	forwardsIn       atomic.Int64
	forwardsOut      atomic.Int64
	forwardFallbacks atomic.Int64

	// sem is the admission gate: Workers+QueueDepth slots. Admission is
	// non-blocking — a full gate is 429, not a wait — so saturation is
	// visible to clients instead of an unbounded queue.
	sem chan struct{}

	// drainMu guards draining against racing admissions: admit holds the
	// read lock while it checks the flag and registers with inflight, so
	// once Drain flips the flag under the write lock no new request can
	// slip into the WaitGroup.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	admitted         atomic.Int64
	completed        atomic.Int64
	rejectedBusy     atomic.Int64
	rejectedDraining atomic.Int64

	// Telemetry plane: the structured logger, the /metrics state, the
	// recent-run registry behind /v1/debug/run/{id}, and the flight-recorder
	// bookkeeping (dump directory plus the registry of in-flight recorders a
	// failed drain dumps before the process exits). The registry is keyed
	// by recorder, not trace ID: requests may share a trace ID.
	log           *slog.Logger
	tel           *telemetry
	runs          *runLog
	flightDir     string
	flightMu      sync.Mutex
	activeFlights map[*obs.FlightRecorder]struct{}

	// runBodies maps a run key hash to its encoded RunResponse, so a memo
	// hit writes stored bytes instead of encoding the Stats again. It holds
	// one entry per key the Runner's memo holds, and like the memo it never
	// evicts.
	runBodies sync.Map

	// storage tallies the durable layer's detected failures (quarantines,
	// checksum mismatches, write errors, durability loss) across the result
	// cache and the session store; exposed on /metrics.
	storage *experiments.StorageCounters

	// Durable sessions: the store (nil when Config.SessionDir is empty or
	// failed to open), the periodic-snapshot ticker's stop plumbing, and the
	// count of sessions restored at startup.
	sessions         *experiments.SessionStore
	sessionStop      chan struct{}
	sessionStopOnce  sync.Once
	sessionsRestored atomic.Int64

	// hookAdmitted, when non-nil, runs after a request passes admission
	// and before its handler body (test instrumentation).
	hookAdmitted func(*http.Request)
}

// New builds a Server over a fresh process-wide Runner.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.MaxRunCycles == 0 {
		cfg.MaxRunCycles = experiments.MaxRunCycles
	}
	s := &Server{
		cfg:           cfg,
		sem:           make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		tel:           newTelemetry(),
		runs:          newRunLog(),
		activeFlights: map[*obs.FlightRecorder]struct{}{},
		storage:       &experiments.StorageCounters{},
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(discardHandler{})
	}
	s.flightDir = cfg.FlightDir
	if s.flightDir == "" && cfg.CacheDir != "" {
		s.flightDir = filepath.Join(cfg.CacheDir, "flightrec")
	}
	s.runner = experiments.NewRunner()
	s.runner.SetWorkers(cfg.Workers)
	s.runner.SetProgress(cfg.Progress)
	if cfg.TimelineDir != "" {
		s.runner.SetTimelineDir(cfg.TimelineDir)
	}
	s.initStores()
	s.runner.SetStorageObserver(s.log, s.storage)
	s.pool = s.runner.Pool()
	if cfg.FleetSelf != "" && len(cfg.FleetPeers) > 0 {
		s.self = cfg.FleetSelf
		s.ring = fleet.NewRing(cfg.FleetPeers)
		s.fleetHC = &http.Client{}
		s.log.Info("fleet member starting",
			"self", s.self, "ring_size", s.ring.Len(), "peers", s.ring.Nodes())
	}
	if cfg.SessionDir != "" {
		s.initSessions()
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// discardHandler is the log handler of a server without a logger. It is
// never enabled, so no log line is formatted. (slog.DiscardHandler needs
// Go 1.24.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// initStores builds the storage tiers: the local disk cache (L1), the
// optional shared L2 behind it, and the runner's view of the pair. Without
// an L2 the runner, the verdict cache and the peer blob API share the one
// local store. With an L2 configured the runner resolves through the tiered
// store — its writes publish to both tiers and its misses read through the
// fleet's shared cache — which is what makes every node's result cache one
// coherent whole.
func (s *Server) initStores() {
	if s.cfg.CacheDir != "" {
		s.localBlobs = experiments.NewBlobCache(s.cfg.CacheDir)
		s.localBlobs.SetObserver(s.log, s.storage)
		s.blobs = s.localBlobs
	}
	if s.cfg.L2 == nil {
		if s.localBlobs != nil {
			s.runner.SetStore(s.localBlobs)
		}
		return
	}
	if o, ok := s.cfg.L2.(interface {
		SetObserver(*slog.Logger, *experiments.StorageCounters)
	}); ok {
		o.SetObserver(s.log, s.storage)
	}
	if s.localBlobs != nil {
		s.tiered = experiments.NewTieredStore(s.localBlobs, s.cfg.L2)
		s.blobs = s.tiered
		s.runner.SetStore(s.tiered)
		return
	}
	// No local cache directory: the shared tier serves alone.
	s.blobs = s.cfg.L2
	s.runner.SetStore(s.cfg.L2)
}

// Drain gracefully retires the server: new requests are refused with 503,
// admitted ones run to completion (or until ctx ends), and the runner's
// provenance manifests are flushed alongside the disk cache. Drain returns
// ctx.Err() if in-flight work outlives the context.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.log.Info("drain started")

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// The drain deadline fired with runs still executing: before the
		// process dies, every in-flight run's flight recorder dumps its
		// final probe events so the interruption is diagnosable post-mortem,
		// and every session that can still be snapshotted gets a final
		// durable snapshot (busy ones are preserved by their journals).
		n := s.dumpInflightFlights("drain-interrupted")
		snaps := s.snapshotSessionsForDrain("drain-interrupted")
		s.log.Warn("drain interrupted with work in flight",
			"flight_dumps", n, "session_snapshots", snaps)
		s.closeSessions()
		return fmt.Errorf("server: drain interrupted with work in flight: %w", ctx.Err())
	}
	// Lossless drain: with no work in flight every open session takes one
	// final snapshot, so the next boot recovers each session at its exact
	// stop point with zero journal replay.
	if snaps := s.snapshotSessionsForDrain("drain"); snaps > 0 {
		s.log.Info("final session snapshots written", "count", snaps)
	}
	s.closeSessions()
	s.log.Info("drain complete")
	return s.flush()
}

// flush persists the runner's provenance manifests next to the disk cache
// so a restarted server (or an operator) can audit what this process
// resolved. A server without a cache directory has nothing to flush.
func (s *Server) flush() error {
	if s.cfg.CacheDir == "" {
		return nil
	}
	mans := s.runner.Manifests()
	data, err := json.MarshalIndent(mans, "", "\t")
	if err != nil {
		return err
	}
	path := filepath.Join(s.cfg.CacheDir, "serve-manifest.json")
	if err := os.MkdirAll(s.cfg.CacheDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// admit passes a request through the admission gate. On success it returns
// a release func the handler must defer; otherwise it has already written
// the 429/503 response and returns ok=false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		s.rejectedDraining.Add(1)
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "server is draining; no new work accepted"})
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.drainMu.RUnlock()
		s.rejectedBusy.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests,
			errorResponse{Error: "server saturated; retry later"})
		return nil, false
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	s.admitted.Add(1)
	if ri := reqInfoFrom(r.Context()); ri != nil {
		s.log.Debug("request admitted", "trace", ri.traceID, "endpoint", ri.endpoint)
	}
	if s.hookAdmitted != nil {
		s.hookAdmitted(r)
	}
	return func() {
		<-s.sem
		s.completed.Add(1)
		s.inflight.Done()
	}, true
}

// requestCtx derives the request's working context: the client connection
// context bounded by timeout_ms (or the server default).
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// writeJSON writes v as the JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeJSON(v))
}

// encodeJSON returns v as a response body: tab-indented JSON ending in a
// newline. A value that does not encode yields an empty body.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "\t")
	enc.Encode(v)
	return b.Bytes()
}

// writeBody writes an encodeJSON body with the given status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeErr maps a harness error onto its HTTP status, records it in the
// request's telemetry scratchpad (so the access log and flight-recorder dump
// see it), and writes it.
func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	if ri := reqInfoFrom(r.Context()); ri != nil && ri.err == nil {
		ri.err = err
	}
	if errors.Is(err, experiments.ErrDurabilityLost) {
		// Degraded disk, not a dead server: invite the client back after
		// the store has had a chance to recover.
		w.Header().Set("Retry-After", "10")
	}
	writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
}

// statusOf is the error → status mapping of the API contract: canceled or
// timed-out work is 504 (the deadline fired, not the simulator), budget
// failures are 422 (the request was well-formed but the run exceeded its
// machine limits), unrecoverable crash images are 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, wsperr.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, wsperr.ErrWPQOverflow), errors.Is(err, wsperr.ErrCyclesExceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, experiments.ErrSessionBusy),
		errors.Is(err, experiments.ErrSessionExists):
		return http.StatusConflict
	case errors.Is(err, experiments.ErrNoSession):
		return http.StatusNotFound
	case errors.Is(err, experiments.ErrSessionClosed):
		return http.StatusGone
	case errors.Is(err, experiments.ErrDurabilityLost):
		// The journal cannot be made durable; shed load instead of lying
		// about persistence (writeErr adds Retry-After).
		return http.StatusServiceUnavailable
	case errors.Is(err, wsperr.ErrUnrecoverable):
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// decode reads the JSON request body into v (an empty body decodes to the
// zero value, so every field is optional at the wire level).
func decode(r *http.Request, v any) error {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return nil
	}
	return fmt.Errorf("bad request body: %v", err)
}
