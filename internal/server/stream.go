package server

import (
	"encoding/json"
	"net/http"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/experiments"
	"lightwsp/internal/machine"
	"lightwsp/internal/metrics"
	"lightwsp/internal/probe"
)

// streamChunk is how many cycles the streaming run advances between
// progress lines: large enough that JSON encoding never dominates the
// simulation, small enough that clients see liveness every few wall-clock
// milliseconds.
const streamChunk = 1 << 20

// streamEvent is one NDJSON line. Type is "event" (a milestone probe
// event), "progress" (a cycle heartbeat), "stats" (the terminal line) or
// "error" (the terminal line of a failed run — the HTTP status is long
// gone by then).
type streamEvent struct {
	Type   string            `json:"type"`
	Kind   string            `json:"kind,omitempty"`
	Cycle  uint64            `json:"cycle,omitempty"`
	Core   int               `json:"core,omitempty"`
	MC     int               `json:"mc,omitempty"`
	Region uint64            `json:"region,omitempty"`
	Arg    uint64            `json:"arg,omitempty"`
	Error  string            `json:"error,omitempty"`
	Stats  any               `json:"stats,omitempty"`
	Metric *metrics.Snapshot `json:"metrics,omitempty"`
	// Trace rides on the terminal line so a saved stream can be correlated
	// with the access log and /v1/debug/run/{id} without the HTTP headers.
	Trace string `json:"trace,omitempty"`
}

// ndjson writes a response as NDJSON, one JSON value per line, and flushes
// every line so that it reaches the client as it happens.
type ndjson struct {
	w     http.ResponseWriter
	enc   *json.Encoder
	flush http.Flusher
}

func newNDJSON(w http.ResponseWriter) *ndjson {
	f, _ := w.(http.Flusher)
	return &ndjson{w: w, enc: json.NewEncoder(w), flush: f}
}

// start sends the stream's 200 header.
func (n *ndjson) start() {
	n.w.Header().Set("Content-Type", "application/x-ndjson")
	n.w.Header().Set("X-Accel-Buffering", "no")
	n.w.WriteHeader(http.StatusOK)
}

// line writes v as the stream's next line.
func (n *ndjson) line(v any) error {
	if err := n.enc.Encode(v); err != nil {
		return err
	}
	if n.flush != nil {
		n.flush.Flush()
	}
	return nil
}

// fail ends a failed request's stream with an unnumbered error line and
// records the error in the request's telemetry.
func (n *ndjson) fail(ri *reqInfo, err error) {
	ri.err = err
	n.line(streamEvent{Type: "error", Error: err.Error(), Trace: ri.traceID})
}

// streamSink writes milestone probe events straight onto the response
// stream. It is driven from the single simulation goroutine, so no
// locking; flushing per event keeps latency low at milestone rates.
type streamSink struct{ out *ndjson }

func (ss *streamSink) Emit(e probe.Event) {
	// probe.MilestoneKind selects the rare protocol transitions worth a
	// line on the wire — the same filter the durable-session stream uses —
	// never the per-store firehose.
	if !probe.MilestoneKind(e.Kind) {
		return
	}
	ss.out.line(streamEvent{
		Type: "event", Kind: e.Kind.String(), Cycle: e.Cycle,
		Core: e.Core, MC: e.MC, Region: e.Region, Arg: e.Arg,
	})
}

// handleRunStream executes one fresh simulation and streams NDJSON while it
// runs: milestone protocol events as they fire, a progress heartbeat every
// streamChunk cycles, and a terminal stats (or error) line. Streaming runs
// bypass the result cache — the event stream is the product — but still
// execute on the shared worker pool under admission control.
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
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
	ri := reqInfoFrom(r.Context())
	ri.suite, ri.app, ri.scheme = string(p.Suite), p.Name, sch.Name

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	ctx, detach := s.attachFlight(ctx, ri)
	defer detach()

	// The runtime is built before the header goes out, so a build or
	// compile error still gets a status code; its sinks emit nothing until
	// a system runs.
	out := newNDJSON(w)
	m := metrics.New()
	cfg, ccfg := experiments.ResolveConfigs(p, compiler.Config{})
	rt, err := experiments.BuildRuntime(p, sch, cfg, ccfg, probe.Multi(m, &streamSink{out}, ri.flight))
	if err != nil {
		ri.err = err
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	out.start()

	queued := time.Now()
	perr := s.pool.DoCtx(ctx, func() {
		ri.queueWait = time.Since(queued)
		var sys *machine.System
		sys, err = rt.NewSystem()
		if err != nil {
			return
		}
		for next := uint64(streamChunk); ; next += streamChunk {
			if next > s.cfg.MaxRunCycles {
				next = s.cfg.MaxRunCycles
			}
			var done bool
			done, err = sys.RunUntilContext(ctx, next)
			if err != nil {
				return
			}
			if done {
				break
			}
			if next == s.cfg.MaxRunCycles {
				err = sys.RunContext(ctx, s.cfg.MaxRunCycles) // surfaces the budget error
				return
			}
			out.line(streamEvent{Type: "progress", Cycle: sys.Cycle()})
		}
		snap := m.Snapshot()
		out.line(streamEvent{
			Type: "stats", Cycle: sys.Cycle(),
			Stats: sys.Stats, Metric: &snap, Trace: ri.traceID,
		})
	})
	if perr != nil {
		err = perr
	}
	if err != nil {
		out.fail(ri, err)
	}
}
