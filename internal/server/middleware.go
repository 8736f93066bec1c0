package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"lightwsp/internal/fleet"
	"lightwsp/internal/obs"
	"lightwsp/internal/wsperr"
)

// reqInfo is the per-request telemetry scratchpad: the middleware creates it,
// handlers enrich it (workload identity, run key, queue wait, errors, the
// flight recorder), and the middleware's deferred tail turns it into the
// access log line, the Prometheus samples, the debug-run record and — when
// the request died badly — the flight-recorder dump. It is only ever touched
// from the request's handler goroutine, so it needs no lock.
type reqInfo struct {
	traceID  string
	endpoint string

	suite, app, scheme string
	keyHash            string
	// session is the durable session the request operated on, if any.
	session string
	// source is the run's resolution provenance when known ("fresh" or
	// "cached", from the manifest); empty otherwise.
	source string
	// queueWait is the measured wait for a worker-pool slot, where the
	// handler drives the pool directly (streaming and failure runs; the
	// Runner path queues internally).
	queueWait time.Duration
	err       error

	flight     *obs.FlightRecorder
	flightDump string
}

type reqInfoKey struct{}

// reqInfoFrom returns the request's telemetry scratchpad, or nil outside the
// instrument middleware (direct handler tests).
func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// statusWriter captures the response status for the access log and metrics
// while passing Flush through, so NDJSON streaming keeps its liveness.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the telemetry plane: trace identity
// (honoring a valid inbound X-LightWSP-Trace, generating one otherwise, and
// always echoing it on the response), panic recovery (the stack is logged
// with the request ID and the client gets a 500, not a torn connection;
// http.ErrAbortHandler, which tears the connection on purpose, passes on
// after the accounting),
// request metrics, the recent-run registry, flight-recorder dumps for
// requests that died, and one structured access-log line. readOnly marks
// cheap introspection endpoints whose access logs stay at debug level so
// scrapers do not drown the interesting lines.
func (s *Server) instrument(endpoint string, readOnly bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(id) {
			id = obs.NewTraceID()
		}
		ri := &reqInfo{traceID: id, endpoint: endpoint}
		ctx := obs.WithTraceID(r.Context(), id)
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		r = r.WithContext(ctx)
		w.Header().Set(obs.TraceHeader, id)
		if s.self != "" {
			// Provisional: a forward replaces it with the peer's stamp.
			w.Header().Set(fleet.ServedByHeader, s.self)
		}
		sw := &statusWriter{ResponseWriter: w}

		defer func() {
			p := recover()
			if p == http.ErrAbortHandler {
				// A forwarded response broke off after its status went out
				// (fleet.Proxy): account for the request, then let net/http
				// abort the connection so the client sees the cut.
				if ri.err == nil {
					ri.err = fmt.Errorf("response aborted: %w", http.ErrAbortHandler)
				}
			} else if p != nil {
				s.tel.panics.Add(1)
				if ri.err == nil {
					ri.err = fmt.Errorf("panic: %v", p)
				}
				s.log.Error("panic while serving request",
					"trace", id, "endpoint", endpoint,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						errorResponse{Error: "internal server error (see server log, trace " + id + ")"})
				}
			}
			status := sw.code
			if !sw.wrote {
				status = http.StatusOK
			}
			d := time.Since(start)
			s.tel.observe(endpoint, status, d)
			if status == http.StatusGatewayTimeout {
				s.tel.deadlineCancels.Add(1)
			}
			if reason := dumpReason(ri, status); reason != "" {
				s.dumpFlight(ri, reason)
			}
			s.noteRun(ri, status, d)
			s.accessLog(r, ri, status, d, readOnly)
			if p == http.ErrAbortHandler {
				panic(p)
			}
		}()

		h(sw, r)
	}
}

// dumpReason decides whether a finished request warrants a flight-recorder
// dump, and why. Streaming runs report failures on an already-200 stream, so
// a recorded error triggers a dump regardless of status.
func dumpReason(ri *reqInfo, status int) string {
	if ri.flight == nil || ri.flightDump != "" {
		return ""
	}
	deadline := status == http.StatusGatewayTimeout ||
		errors.Is(ri.err, wsperr.ErrCanceled) ||
		errors.Is(ri.err, context.DeadlineExceeded) ||
		errors.Is(ri.err, context.Canceled)
	switch {
	case deadline:
		return "deadline"
	case status == http.StatusInternalServerError,
		status == http.StatusUnprocessableEntity,
		ri.err != nil:
		return "error"
	}
	return ""
}

// dumpFlight writes the request's flight-recorder tail to the flight
// directory (idempotently — the first reason wins).
func (s *Server) dumpFlight(ri *reqInfo, reason string) {
	if ri.flight == nil || ri.flightDump != "" || s.flightDir == "" {
		return
	}
	path, err := ri.flight.Dump(s.flightDir, reason, ri.err)
	if err != nil {
		s.log.Error("flight-recorder dump failed",
			"trace", ri.traceID, "reason", reason, "error", err)
		return
	}
	ri.flightDump = path
	s.tel.flightDumps.Add(1)
	s.log.Info("flight recorder dumped",
		"trace", ri.traceID, "reason", reason, "path", path,
		"events", len(ri.flight.Events()), "total_events", ri.flight.Total())
}

// accessLog emits the request's one structured summary line.
func (s *Server) accessLog(r *http.Request, ri *reqInfo, status int, d time.Duration, readOnly bool) {
	lvl := slog.LevelInfo
	if readOnly {
		lvl = slog.LevelDebug
	}
	if status >= http.StatusInternalServerError {
		lvl = slog.LevelWarn
	}
	if !s.log.Enabled(r.Context(), lvl) {
		return
	}
	attrs := []any{
		"trace", ri.traceID,
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"dur_ms", float64(d.Microseconds()) / 1000,
	}
	if ri.queueWait > 0 {
		attrs = append(attrs, "queue_wait_ms", float64(ri.queueWait.Microseconds())/1000)
	}
	if ri.session != "" {
		attrs = append(attrs, "session", ri.session)
	}
	if ri.suite != "" {
		attrs = append(attrs, "suite", ri.suite, "app", ri.app)
	}
	if ri.scheme != "" {
		attrs = append(attrs, "scheme", ri.scheme)
	}
	if ri.source != "" {
		attrs = append(attrs, "source", ri.source)
	}
	if ri.keyHash != "" {
		attrs = append(attrs, "key", shortHash(ri.keyHash))
	}
	if ri.err != nil {
		attrs = append(attrs, "error", ri.err.Error())
	}
	if ri.flightDump != "" {
		attrs = append(attrs, "flight_dump", ri.flightDump)
	}
	s.log.Log(r.Context(), lvl, "request", attrs...)
}

// shortHash abbreviates a run-key hash for log lines.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// attachFlight equips the request with a flight recorder: the returned
// context carries it to whatever probe sink the run builds (the Runner picks
// it up via obs.Recorder), and the recorder is registered so a drain that
// gets interrupted with this request still in flight can dump every victim.
// The returned detach must be deferred.
func (s *Server) attachFlight(ctx context.Context, ri *reqInfo) (context.Context, func()) {
	rec := obs.NewFlightRecorder(ri.traceID, 0)
	rec.SetRun(ri.suite, ri.app, ri.scheme)
	if ri.session != "" {
		rec.SetSession(ri.session)
	}
	ri.flight = rec
	s.flightMu.Lock()
	s.activeFlights[rec] = struct{}{}
	s.flightMu.Unlock()
	return obs.WithRecorder(ctx, rec), func() {
		s.flightMu.Lock()
		delete(s.activeFlights, rec)
		s.flightMu.Unlock()
	}
}

// dumpInflightFlights dumps every still-registered flight recorder — the
// SIGTERM-while-in-flight path: the drain deadline expired with work still
// running, so each victim run leaves its last probe events behind before the
// process exits. Returns how many dumps were written.
func (s *Server) dumpInflightFlights(reason string) int {
	if s.flightDir == "" {
		return 0
	}
	s.flightMu.Lock()
	recs := make([]*obs.FlightRecorder, 0, len(s.activeFlights))
	for rec := range s.activeFlights {
		recs = append(recs, rec)
	}
	s.flightMu.Unlock()
	n := 0
	for _, rec := range recs {
		path, err := rec.Dump(s.flightDir, reason, nil)
		if err != nil {
			s.log.Error("flight-recorder dump failed",
				"trace", rec.TraceID(), "reason", reason, "error", err)
			continue
		}
		s.tel.flightDumps.Add(1)
		s.log.Info("flight recorder dumped",
			"trace", rec.TraceID(), "reason", reason, "path", path)
		n++
	}
	return n
}
