package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/crashfuzz"
	"lightwsp/internal/experiments"
	"lightwsp/internal/machine"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// routes installs the API surface on the server's mux, every endpoint
// wrapped in the instrument middleware (trace identity, panic recovery,
// metrics, access logs). The readOnly flag keeps scrape/probe endpoints'
// access lines at debug level. Two more wrappers run before a handler:
// admitted passes the request through the admission gate, and routed
// buffers its body and forwards it to its ring owner, so a routed handler
// runs only on the node that serves the request.
func (s *Server) routes() {
	handle := func(pattern, endpoint string, readOnly bool, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(endpoint, readOnly, h))
	}
	admitted := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			release, ok := s.admit(w, r)
			if !ok {
				return
			}
			defer release()
			h(w, r)
		}
	}
	routed := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			body, err := bufferBody(r)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
				return
			}
			if !s.forwardOwned(w, r, body) {
				h(w, r)
			}
		}
	}
	handle("GET /healthz", "/healthz", true, s.handleHealthz)
	handle("GET /stats", "/stats", true, s.handleStats)
	handle("GET /metrics", "/metrics", true, s.handleMetrics)
	handle("GET /v1/experiments", "/v1/experiments", true, s.handleExperiments)
	handle("GET /v1/debug/run/{id}", "/v1/debug/run", true, s.handleDebugRun)
	handle("POST /v1/compile", "/v1/compile", false, admitted(s.handleCompile))
	handle("POST /v1/run", "/v1/run", false, admitted(routed(s.handleRun)))
	handle("POST /v1/run/stream", "/v1/run/stream", false, admitted(routed(s.handleRunStream)))
	handle("POST /v1/run-with-failure", "/v1/run-with-failure", false, admitted(routed(s.handleRunWithFailure)))
	handle("POST /v1/crashfuzz", "/v1/crashfuzz", false, admitted(routed(s.handleCrashfuzz)))
	handle("POST /v1/experiment", "/v1/experiment", false, admitted(s.handleExperiment))
	handle("POST /v1/session", "/v1/session", false, admitted(routed(s.handleSessionCreate)))
	handle("GET /v1/session", "/v1/session", true, s.handleSessionList)
	handle("GET /v1/session/{id}", "/v1/session/get", true, routed(s.handleSessionGet))
	handle("DELETE /v1/session/{id}", "/v1/session/delete", false, admitted(routed(s.handleSessionDelete)))
	handle("POST /v1/session/{id}/advance", "/v1/session/advance", false, admitted(routed(s.handleSessionAdvance)))
	handle("POST /v1/session/{id}/resume", "/v1/session/resume", false, admitted(routed(s.handleSessionResume)))
	// Peer store API (fleet traffic; readOnly keeps the 20ms lease polls
	// out of the info-level access log).
	handle("GET /v1/blob/{hash}", "/v1/blob", true, s.handleBlobGet)
	handle("PUT /v1/blob/{hash}", "/v1/blob", true, s.handleBlobPut)
	handle("DELETE /v1/blob/{hash}", "/v1/blob", true, s.handleBlobDelete)
	handle("POST /v1/lease/{name}", "/v1/lease", true, s.handleLease)
	handle("DELETE /v1/lease/{name}", "/v1/lease", true, s.handleLeaseRelease)
}

// handleHealthz is the liveness probe: 200 while serving, 503 once the
// drain began (load balancers stop routing here before shutdown) — and 503
// while the session store cannot make journal appends durable. The degraded
// case used to answer 200, which kept load balancers routing session work
// to a node that would refuse every advance; reporting it here lets the lb
// eject the node until the disk recovers (the store's active probe clears
// the flag on its own).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.sessions != nil && s.sessions.Degraded() && !s.sessions.RecheckDurability() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "degraded"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStats reports the shared runner's cache counters and the admission
// gate's request accounting.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	c := s.runner.Counters()
	inFlight, queued, _ := s.gaugeSnapshot()
	openSessions := 0
	if s.sessions != nil {
		openSessions = len(s.sessions.Sessions())
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		FreshRuns:        c.Fresh,
		DiskCacheHits:    c.DiskHits,
		MemCacheHits:     c.MemHits,
		LeaseJoins:       c.LeaseJoins,
		Workers:          s.cfg.Workers,
		QueueDepth:       s.cfg.QueueDepth,
		InFlight:         inFlight,
		Queued:           queued,
		Admitted:         s.admitted.Load(),
		Completed:        s.completed.Load(),
		RejectedBusy:     s.rejectedBusy.Load(),
		RejectedDraining: s.rejectedDraining.Load(),
		Draining:         draining,
		SessionsOpen:     openSessions,
		SessionsRestored: s.sessionsRestored.Load(),
		Metrics:          experiments.AggregateMetrics(s.runner.Manifests()),
	})
}

// handleExperiments lists every runnable experiment: the registry plus the
// crashfuzz campaign this package hosts (crashfuzz imports experiments, so
// its entry cannot live in the registry).
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []ExperimentInfo
	for _, e := range experiments.Registry() {
		out = append(out, ExperimentInfo{Name: e.Name, Desc: e.Desc})
	}
	out = append(out, ExperimentInfo{Name: "crashfuzz",
		Desc: "exhaustive crash-consistency smoke campaigns"})
	writeJSON(w, http.StatusOK, out)
}

// lookupProfile resolves a workload or writes the 404.
func lookupProfile(w http.ResponseWriter, suite, app string) (workload.Profile, bool) {
	p, ok := workload.Find(suite, app)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("unknown workload %s/%s", suite, app)})
	}
	return p, ok
}

// lookupScheme resolves a scheme name (empty: lightwsp) or writes the 400.
func lookupScheme(w http.ResponseWriter, name string) (machine.Scheme, bool) {
	if name == "" {
		name = "lightwsp"
	}
	sch, ok := experiments.SchemeByName(name)
	if !ok {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("unknown scheme %q", name)})
	}
	return sch, ok
}

// handleRun resolves one simulation through the shared Runner: concurrent
// requests for the same key join a single in-flight execution, and the
// response is byte-identical however the result was obtained.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
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
	cfg, ccfg := experiments.ResolveConfigs(p, compiler.Config{})
	_, hash := experiments.CanonicalRunKey(p, sch, cfg, ccfg)
	ri := reqInfoFrom(r.Context())
	ri.suite, ri.app, ri.scheme, ri.keyHash = string(p.Suite), p.Name, sch.Name, hash

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	ctx, detach := s.attachFlight(ctx, ri)
	defer detach()

	st, err := s.runner.WithContext(ctx).Run(p, sch, compiler.Config{})
	if err != nil {
		writeErr(w, r, err)
		return
	}
	s.noteResolved(ri, hash)
	out, ok := s.runBodies.Load(hash)
	if !ok {
		// A run key always resolves to the same Stats, so the first
		// encoding is the body of every later response for the key.
		out, _ = s.runBodies.LoadOrStore(hash, encodeJSON(RunResponse{
			Suite:   string(p.Suite),
			App:     p.Name,
			Scheme:  sch.Name,
			KeyHash: hash,
			Stats:   *st,
		}))
	}
	writeBody(w, http.StatusOK, out.([]byte))
}

// noteResolved enriches the request record with the run's provenance
// manifest (resolution source, degradation warnings) once the Runner has
// one. Joined waiters see the manifest of whoever resolved the run.
func (s *Server) noteResolved(ri *reqInfo, hash string) {
	man, ok := s.runner.ManifestByHash(hash)
	if !ok {
		return
	}
	ri.source = man.Source
	s.log.Info("run resolved",
		"trace", ri.traceID, "key", shortHash(hash),
		"suite", ri.suite, "app", ri.app, "scheme", ri.scheme,
		"source", man.Source, "cycles", man.Cycles,
		"wall_s", man.WallSeconds, "resolved_by", man.TraceID)
	if man.Metrics.Degradations > 0 {
		s.log.Warn("memory controllers degraded during run",
			"trace", ri.traceID, "key", shortHash(hash),
			"degradations", man.Metrics.Degradations)
	}
}

// handleCompile reports static compilation statistics without running
// anything (cheap; still admitted so drain accounting covers it).
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := decode(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	p, ok := lookupProfile(w, req.Suite, req.App)
	if !ok {
		return
	}
	if ri := reqInfoFrom(r.Context()); ri != nil {
		ri.suite, ri.app = string(p.Suite), p.Name
	}
	cfg, ccfg := experiments.ResolveConfigs(p, compiler.Config{StoreThreshold: req.StoreThreshold})
	rt, err := experiments.BuildRuntime(p, core.Scheme(), cfg, ccfg, nil)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, CompileResponse{
		Suite:          string(p.Suite),
		App:            p.Name,
		StoreThreshold: ccfg.StoreThreshold,
		Stats:          rt.Compiled.Stats,
	})
}

// handleRunWithFailure executes a power-cut + recovery round trip under
// LightWSP and verifies the recovered persistent image against the
// architectural state, exactly as the CLI and the fuzzing oracle do. The
// simulation runs on the shared worker pool so -j bounds it with
// everything else.
func (s *Server) handleRunWithFailure(w http.ResponseWriter, r *http.Request) {
	var req FailureRequest
	if err := decode(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	p, ok := lookupProfile(w, req.Suite, req.App)
	if !ok {
		return
	}
	ri := reqInfoFrom(r.Context())
	ri.suite, ri.app, ri.scheme = string(p.Suite), p.Name, core.Scheme().Name

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	ctx, detach := s.attachFlight(ctx, ri)
	defer detach()

	cfg, ccfg := experiments.ResolveConfigs(p, compiler.Config{})
	rt, err := experiments.BuildRuntime(p, core.Scheme(), cfg, ccfg, ri.flight)
	if err != nil {
		ri.err = err
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	var res *core.CrashResult
	queued := time.Now()
	if perr := s.pool.DoCtx(ctx, func() {
		ri.queueWait = time.Since(queued)
		res, err = rt.RunWithFailure(ctx, req.FailCycle, s.cfg.MaxRunCycles)
	}); perr != nil {
		writeErr(w, r, perr)
		return
	}
	if err != nil {
		writeErr(w, r, err)
		return
	}
	rec := res.Recovered
	writeJSON(w, http.StatusOK, FailureResponse{
		Suite:      string(p.Suite),
		App:        p.Name,
		Failed:     res.Failed,
		Discarded:  res.Report.Discarded,
		Cycles:     rec.Stats.Cycles,
		Consistent: recovery.VerifyPMMatchesArch(rec.PM(), rec.Arch()) == nil,
	})
}

// handleCrashfuzz runs one crash-consistency fuzzing campaign on the shared
// pool, memoizing passing verdicts in the shared blob cache.
func (s *Server) handleCrashfuzz(w http.ResponseWriter, r *http.Request) {
	var req CrashfuzzRequest
	if err := decode(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	p, ok := lookupProfile(w, req.Suite, req.App)
	if !ok {
		return
	}
	if ri := reqInfoFrom(r.Context()); ri != nil {
		ri.suite, ri.app = string(p.Suite), p.Name
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	res, err := crashfuzz.RunContext(ctx, crashfuzz.Config{
		Profile:             p,
		ExhaustiveThreshold: req.Threshold,
		MaxInjections:       req.Points,
		Cuts:                req.Cuts,
		Seed:                seed,
		MaxCycles:           s.cfg.MaxRunCycles,
		Pool:                s.pool,
		Cache:               s.blobs,
		Progress:            s.cfg.Progress,
	})
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, CrashfuzzResponse{Result: res})
}

// handleExperiment runs one full registry experiment through a
// context-bound view of the shared Runner, so its grid lands in the same
// caches every other request uses.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if err := decode(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	run, ok := s.experimentByName(ctx, req.Name)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("unknown experiment %q", req.Name)})
		return
	}
	if ri := reqInfoFrom(r.Context()); ri != nil {
		ri.suite, ri.app = "experiment", req.Name
	}
	start := time.Now()
	res, err := run()
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, ExperimentResponse{
		Name:        req.Name,
		Text:        res.String(),
		WallSeconds: time.Since(start).Seconds(),
	})
}

// experimentByName resolves a runnable experiment: a registry entry bound
// to the shared Runner, or the crashfuzz smoke campaign hosted here.
func (s *Server) experimentByName(ctx context.Context, name string) (func() (fmt.Stringer, error), bool) {
	if e, ok := experiments.ExperimentByName(name); ok {
		r := s.runner.WithContext(ctx)
		return func() (fmt.Stringer, error) { return e.Run(r) }, true
	}
	if name == "crashfuzz" {
		return func() (fmt.Stringer, error) {
			return crashfuzz.Smoke(ctx, crashfuzz.Config{
				MaxCycles: s.cfg.MaxRunCycles, Pool: s.pool, Cache: s.blobs,
			})
		}, true
	}
	return nil, false
}
