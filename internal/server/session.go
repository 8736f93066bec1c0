package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lightwsp/internal/experiments"
	"lightwsp/internal/fleet"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/obs"
	"lightwsp/internal/probe"
)

// This file is the HTTP face of durable sessions (experiments/session.go):
// long-lived simulations a client advances incrementally, which survive
// power loss and server restarts. The server owns one SessionStore; every
// session found on disk is reopened at startup (and lazily on first touch,
// so a session created by a previous process is reachable even if its boot
// restore failed), a wall-clock ticker forces snapshots of idle sessions,
// and the drain path takes one final snapshot of every open session so a
// planned shutdown loses nothing and costs the next boot no replay.

// initSessions opens the session store and restores every session found in
// it. Called from New when Config.SessionDir is set; a store that cannot
// open logs the error and leaves the session endpoints answering 503 rather
// than taking the rest of the API down with it.
func (s *Server) initSessions() {
	fsys := s.cfg.SessionFS
	if fsys == nil {
		fsys = hostfs.Disk()
	}
	st, err := experiments.OpenSessionStoreFS(s.cfg.SessionDir, fsys)
	if err != nil {
		s.log.Error("session store unavailable; session endpoints disabled",
			"dir", s.cfg.SessionDir, "error", err)
		return
	}
	st.SetObserver(s.log, s.storage)
	if s.cfg.L2 != nil {
		// Session snapshots publish to the shared tier too, so a session
		// that rehashes to another node after a member dies can restore
		// from its newest snapshot there.
		st.SetL2(s.cfg.L2)
	}
	st.OnSnapshot = func(id string, wall time.Duration) {
		s.tel.sessionSnaps.Add(1)
		us := wall.Microseconds()
		if us < 0 {
			us = 0
		}
		s.tel.mu.Lock()
		s.tel.snapLatency.Observe(uint64(us))
		s.tel.mu.Unlock()
		s.log.Debug("session snapshot written",
			"session", id, "wall_ms", float64(us)/1000)
	}
	s.sessions = st
	s.restoreSessions()
	if s.cfg.SnapshotInterval > 0 {
		s.sessionStop = make(chan struct{})
		go s.snapshotTicker()
	}
}

// restoreSessions replays the recovery protocol for every session on disk:
// each reopen loads the newest durable snapshot that validates, recovers the
// machine from its crash image, and replays the journal tail — so a server
// that was SIGKILLed mid-run comes back with every session live at its last
// journaled position.
func (s *Server) restoreSessions() {
	ids, err := s.sessions.List()
	if err != nil {
		s.log.Error("session scan failed", "dir", s.cfg.SessionDir, "error", err)
		return
	}
	for _, id := range ids {
		// In a fleet only the ring owner restores a session at boot —
		// eagerly opening a peer's sessions would fight it for the journal.
		// A session that rehashes here later (its owner died) is opened
		// lazily by lookupSession on first touch.
		if s.ring != nil && s.self != "" {
			if owner := s.ring.Owner(fleet.SessionRouteKey(id)); owner != s.self {
				s.log.Debug("session owned by a peer; skipping boot restore",
					"session", id, "owner", owner)
				continue
			}
		}
		start := time.Now()
		sess, err := s.sessions.Open(context.Background(), id)
		if err != nil {
			s.log.Error("session restore failed; will retry on first touch",
				"session", id, "error", err)
			continue
		}
		s.sessionsRestored.Add(1)
		st := sess.Status()
		s.log.Info("session restored",
			"session", id, "suite", st.Spec.Suite, "app", st.Spec.App,
			"total_cycles", st.Total, "records", st.Records,
			"snapshots", st.Snapshots, "done", st.Done,
			"wall_ms", float64(time.Since(start).Microseconds())/1000)
	}
	if len(ids) > 0 {
		s.log.Info("session restore complete",
			"found", len(ids), "restored", s.sessionsRestored.Load())
	}
}

// snapshotTicker periodically forces a snapshot of every open session that
// has advanced since its last one, bounding the journal replay a hard crash
// would cost even when clients never hit a cadence point. Busy sessions are
// skipped — an in-flight Advance snapshots on its own cadence.
func (s *Server) snapshotTicker() {
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sessionStop:
			return
		case <-t.C:
		}
		for _, sess := range s.sessions.Sessions() {
			took, err := sess.ForceSnapshot(context.Background())
			switch {
			case errors.Is(err, experiments.ErrSessionBusy),
				errors.Is(err, experiments.ErrSessionClosed):
				// Busy: the running operation snapshots for us. Closed: the
				// session was removed between listing and snapshotting.
			case err != nil:
				s.log.Error("periodic session snapshot failed",
					"session", sess.ID, "error", err)
			case took:
				s.log.Debug("periodic session snapshot", "session", sess.ID)
			}
		}
	}
}

// stopSessionTicker halts the periodic snapshotter (idempotent).
func (s *Server) stopSessionTicker() {
	if s.sessionStop != nil {
		s.sessionStopOnce.Do(func() { close(s.sessionStop) })
	}
}

// snapshotSessionsForDrain forces a final durable snapshot of every open
// session so a planned shutdown is lossless without replay: the next boot
// recovers each session straight from a snapshot at its exact stop point.
// A session still busy when the drain deadline already fired is skipped —
// its write-ahead journal preserves the work, and its flight recorder has
// been dumped — because waiting would hold up the exit. Returns how many
// snapshots were written.
func (s *Server) snapshotSessionsForDrain(reason string) int {
	if s.sessions == nil {
		return 0
	}
	n := 0
	for _, sess := range s.sessions.Sessions() {
		took, err := sess.ForceSnapshot(context.Background())
		switch {
		case errors.Is(err, experiments.ErrSessionBusy):
			s.log.Warn("session busy at drain; journal preserves its progress",
				"session", sess.ID, "reason", reason)
		case errors.Is(err, experiments.ErrSessionClosed):
		case err != nil:
			s.log.Error("drain snapshot failed; journal preserves progress",
				"session", sess.ID, "reason", reason, "error", err)
		case took:
			n++
			s.log.Info("final session snapshot written",
				"session", sess.ID, "reason", reason)
		}
	}
	return n
}

// closeSessions closes the store (journals flushed and closed) and stops the
// snapshot ticker. Called at the end of both drain paths.
func (s *Server) closeSessions() {
	s.stopSessionTicker()
	if s.sessions != nil {
		s.sessions.Close()
	}
}

// lookupSession resolves a session ID or writes the error: 503 when the
// server has no session store, 404 when the ID is unknown. A session on disk
// that is not yet open (its boot restore failed, or another process created
// it) is opened on the spot.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) (*experiments.Session, bool) {
	if s.sessions == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "sessions disabled; start the server with a session directory"})
		return nil, false
	}
	id := r.PathValue("id")
	if sess, ok := s.sessions.Get(id); ok {
		return sess, true
	}
	sess, err := s.sessions.Open(r.Context(), id)
	if err != nil {
		writeErr(w, r, err)
		return nil, false
	}
	return sess, true
}

// handleSessionCreate (POST /v1/session) creates a durable session. The
// workload and scheme are validated up front (404/400 exactly like /v1/run);
// an omitted ID gets a generated one; an omitted snapshot cadence inherits
// the server default.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionCreateRequest
	if err := decode(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	p, ok := lookupProfile(w, req.Suite, req.App)
	if !ok {
		return
	}
	sch, ok := lookupScheme(w, req.Scheme)
	if !ok {
		return
	}
	if !sch.Instrumented {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(
			"scheme %q cannot host a session: snapshots are power failures and only instrumented schemes recover", sch.Name)})
		return
	}
	id := req.ID
	if id == "" {
		id = "s-" + obs.NewTraceID()
	}
	if !experiments.ValidSessionID(id) {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("invalid session id %q", id)})
		return
	}
	// A create with no client-chosen ID is unkeyed, so it may land
	// anywhere; the minted ID decides the owner. Forward the request with
	// the ID filled in so the owner creates exactly this session.
	if req.ID == "" {
		req.ID = id
		if body, err := json.Marshal(req); err == nil && s.forwardOwned(w, r, body) {
			return
		}
	}
	if s.sessions == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "sessions disabled; start the server with a session directory"})
		return
	}
	ri := reqInfoFrom(r.Context())
	ri.session, ri.suite, ri.app, ri.scheme = id, string(p.Suite), p.Name, sch.Name

	spec := experiments.SessionSpec{
		Suite: string(p.Suite), App: p.Name, Scheme: sch.Name,
		SnapshotEvery: req.SnapshotEvery,
	}
	if spec.SnapshotEvery == 0 {
		spec.SnapshotEvery = s.cfg.SnapshotEvery
	}
	sess, err := s.sessions.Create(id, spec)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	s.log.Info("session created",
		"session", id, "suite", spec.Suite, "app", spec.App,
		"scheme", spec.Scheme, "snapshot_every", spec.SnapshotEvery)
	writeJSON(w, http.StatusCreated, sess.Status())
}

// handleSessionList (GET /v1/session) reports every open session's status.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	if s.sessions == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "sessions disabled; start the server with a session directory"})
		return
	}
	sessions := s.sessions.Sessions()
	out := make([]experiments.SessionStatus, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.Status())
	}
	writeJSON(w, http.StatusOK, SessionListResponse{Sessions: out})
}

// handleSessionGet (GET /v1/session/{id}) reports one session's status.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	if ri := reqInfoFrom(r.Context()); ri != nil {
		ri.session = sess.ID
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

// handleSessionDelete (DELETE /v1/session/{id}) removes a session and its
// snapshots. A busy session is 409 — interrupt the client first.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.sessions == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "sessions disabled; start the server with a session directory"})
		return
	}
	if ri := reqInfoFrom(r.Context()); ri != nil {
		ri.session = id
	}
	if err := s.sessions.Remove(id); err != nil {
		writeErr(w, r, err)
		return
	}
	s.log.Info("session removed", "session", id)
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed", "id": id})
}

// handleSessionAdvance (POST /v1/session/{id}/advance) runs the session
// forward to a session-total cycle target, streaming its milestone events as
// NDJSON. The stream carries only numbered SessionEvent lines (plus an
// unnumbered terminal error line if the run fails), so the concatenation of
// every advance stream a client ever received IS the session's canonical
// event stream — byte-identical to what a resume replays.
func (s *Server) handleSessionAdvance(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req SessionAdvanceRequest
	if err := decode(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	vet := func(st experiments.SessionStatus) bool {
		if !st.Done && req.Target > st.Total && req.Target-st.Total > s.cfg.MaxRunCycles {
			writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: fmt.Sprintf(
				"advance of %d cycles exceeds the per-request budget of %d; advance in smaller steps",
				req.Target-st.Total, s.cfg.MaxRunCycles)})
			return false
		}
		// Graceful degradation: a store that lost durability fails advances
		// fast (503 + Retry-After via writeErr) instead of burning a worker
		// on an operation whose journal append cannot be honored. The active
		// probe clears the flag the moment the disk recovers.
		if s.sessions.Degraded() && !s.sessions.RecheckDurability() {
			writeErr(w, r, fmt.Errorf("session store %q cannot persist: %w",
				s.cfg.SessionDir, experiments.ErrDurabilityLost))
			return false
		}
		return true
	}
	s.streamSession(w, r, sess, req.TimeoutMS, vet, nil,
		func(ctx context.Context, emit func(experiments.SessionEvent) error, flight probe.Sink) error {
			return sess.Advance(ctx, req.Target, emit, flight)
		})
}

// sessionResumeHeader is the one unnumbered line a resume stream starts
// with, so a client can confirm the replay point before events arrive.
// Strip it (it has no "seq") to splice the replay onto a saved stream.
type sessionResumeHeader struct {
	Type    string `json:"type"`
	Session string `json:"session"`
	FromSeq uint64 `json:"from_seq"`
	Trace   string `json:"trace,omitempty"`
}

// handleSessionResume (POST /v1/session/{id}/resume) replays the session's
// event stream after the client's last-seen sequence number: the server
// restores the newest durable snapshot that stream position allows,
// re-executes the journal forward, and streams exactly the events after
// last_seq — byte-identical to the stream an uninterrupted client received.
func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req SessionResumeRequest
	if err := decode(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ri := reqInfoFrom(r.Context())
	head := sessionResumeHeader{Type: "resume", Session: sess.ID, FromSeq: req.LastSeq, Trace: ri.traceID}
	if !s.streamSession(w, r, sess, req.TimeoutMS, nil, head,
		func(ctx context.Context, emit func(experiments.SessionEvent) error, flight probe.Sink) error {
			return sess.Resume(ctx, req.LastSeq, emit, flight)
		}) {
		return
	}
	s.tel.sessionResumes.Add(1)
	s.log.Info("session resumed",
		"trace", ri.traceID, "session", sess.ID, "from_seq", req.LastSeq)
}

// streamSession runs one streamed operation on sess, an advance or a
// resume, and reports whether it ran and succeeded. A busy session is 409;
// vet, when set, may refuse the operation with its own answer before the
// stream starts. The operation then runs on the worker pool under the
// request's deadline and flight recorder, its events stream as NDJSON after
// head (when set), and a failure ends the stream with an unnumbered error
// line.
func (s *Server) streamSession(w http.ResponseWriter, r *http.Request, sess *experiments.Session, timeoutMS int64,
	vet func(experiments.SessionStatus) bool, head any,
	op func(ctx context.Context, emit func(experiments.SessionEvent) error, flight probe.Sink) error) bool {
	ri := reqInfoFrom(r.Context())
	ri.session = sess.ID
	ri.suite, ri.app, ri.scheme = sess.Spec.Suite, sess.Spec.App, sess.Spec.Scheme

	st := sess.Status()
	if st.Busy {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: fmt.Sprintf("session %q busy: another operation is in flight", sess.ID)})
		return false
	}
	if vet != nil && !vet(st) {
		return false
	}

	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()
	ctx, detach := s.attachFlight(ctx, ri)
	defer detach()

	out := newNDJSON(w)
	out.start()
	if head != nil {
		out.line(head)
	}
	var err error
	queued := time.Now()
	perr := s.pool.DoCtx(ctx, func() {
		ri.queueWait = time.Since(queued)
		err = op(ctx, func(ev experiments.SessionEvent) error { return out.line(ev) }, ri.flight)
	})
	if perr != nil {
		err = perr
	}
	if err != nil {
		out.fail(ri, err)
		return false
	}
	return true
}
