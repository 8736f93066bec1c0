package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
)

// runRequest mirrors server.RunRequest on the wire.
type runRequest struct {
	Suite     string `json:"suite"`
	App       string `json:"app"`
	Scheme    string `json:"scheme,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// RunResult is one cached simulation run. Stats is the server's stats
// document verbatim: identical requests yield byte-identical Stats whether
// the run was fresh, cached, or joined from a fleet peer, and keeping the
// raw bytes lets callers check exactly that.
type RunResult struct {
	Suite   string          `json:"suite"`
	App     string          `json:"app"`
	Scheme  string          `json:"scheme"`
	KeyHash string          `json:"key_hash"`
	Stats   json.RawMessage `json:"stats"`
}

// Run executes (or fetches) one simulation: POST /v1/run.
func (c *Client) Run(ctx context.Context, suite, app, scheme string, opts ...CallOption) (*RunResult, error) {
	o := resolve(opts)
	req := runRequest{Suite: suite, App: app, Scheme: scheme, TimeoutMS: o.timeoutMS()}
	var out RunResult
	if err := c.doJSON(ctx, http.MethodPost, "/v1/run", req, &out, opts); err != nil {
		return nil, err
	}
	return &out, nil
}

// RunStream executes one fresh run and streams its protocol events: POST
// /v1/run/stream. fn sees every NDJSON line, including the terminal stats
// line (Type "stats"); an in-band terminal error returns a *StreamError.
func (c *Client) RunStream(ctx context.Context, suite, app, scheme string, fn func(StreamEvent) error, opts ...CallOption) error {
	o := resolve(opts)
	req := runRequest{Suite: suite, App: app, Scheme: scheme, TimeoutMS: o.timeoutMS()}
	return c.doStream(ctx, "/v1/run/stream", req, fn, opts)
}

// failureRequest mirrors server.FailureRequest on the wire.
type failureRequest struct {
	Suite     string `json:"suite"`
	App       string `json:"app"`
	FailCycle uint64 `json:"fail_cycle"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// FailureResult reports one power-cut + recovery round trip.
type FailureResult struct {
	Suite string `json:"suite"`
	App   string `json:"app"`
	// Failed is false when the program finished before the injection point.
	Failed bool `json:"failed"`
	// Discarded counts WPQ entries of unpersisted regions dropped on drain.
	Discarded int `json:"discarded"`
	// Cycles is the recovered run's final cycle count.
	Cycles uint64 `json:"cycles"`
	// Consistent reports whether the persisted image matched architectural
	// state after recovery.
	Consistent bool `json:"consistent"`
}

// RunWithFailure cuts power at failCycle, recovers and finishes the run:
// POST /v1/run-with-failure.
func (c *Client) RunWithFailure(ctx context.Context, suite, app string, failCycle uint64, opts ...CallOption) (*FailureResult, error) {
	o := resolve(opts)
	req := failureRequest{Suite: suite, App: app, FailCycle: failCycle, TimeoutMS: o.timeoutMS()}
	var out FailureResult
	if err := c.doJSON(ctx, http.MethodPost, "/v1/run-with-failure", req, &out, opts); err != nil {
		return nil, err
	}
	return &out, nil
}

// CrashfuzzSpec parameterizes one crash-consistency fuzzing campaign;
// zero values inherit the server defaults.
type CrashfuzzSpec struct {
	Suite     string `json:"suite"`
	App       string `json:"app"`
	Cuts      int    `json:"cuts,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Threshold uint64 `json:"threshold,omitempty"`
	Points    int    `json:"points,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// CrashfuzzResult summarizes a campaign. Raw preserves the server's full
// result document (schema_version, per-schedule detail, repro paths)
// beyond the typed fields.
type CrashfuzzResult struct {
	Suite   string `json:"suite"`
	App     string `json:"app"`
	Scheme  string `json:"scheme"`
	KeyHash string `json:"key_hash"`
	Mode    string `json:"mode"`
	Cuts    int    `json:"cuts"`
	Seed    int64  `json:"seed"`
	// Faults names the fault-injection plan, when one was active.
	Faults            string `json:"faults,omitempty"`
	OracleCycles      uint64 `json:"oracle_cycles"`
	OracleHash        string `json:"oracle_hash"`
	CyclesCovered     int    `json:"cycles_covered"`
	InterestingCycles int    `json:"interesting_cycles"`
	Injections        int    `json:"injections"`
	CacheHits         int    `json:"cache_hits"`
	// SharedTails counts schedules that took the outcome of an earlier
	// schedule with the same crash state instead of running their own tail.
	SharedTails int      `json:"shared_tails"`
	Divergences int      `json:"divergences"`
	ReproPaths  []string `json:"repro_paths,omitempty"`
	Raw         []byte   `json:"-"`
}

// Crashfuzz runs one crash-consistency fuzzing campaign: POST /v1/crashfuzz.
func (c *Client) Crashfuzz(ctx context.Context, spec CrashfuzzSpec, opts ...CallOption) (*CrashfuzzResult, error) {
	o := resolve(opts)
	if spec.TimeoutMS == 0 {
		spec.TimeoutMS = o.timeoutMS()
	}
	var wrap struct {
		Result json.RawMessage `json:"result"`
	}
	if err := c.doJSON(ctx, http.MethodPost, "/v1/crashfuzz", spec, &wrap, opts); err != nil {
		return nil, err
	}
	var out CrashfuzzResult
	if err := json.Unmarshal(wrap.Result, &out); err != nil {
		return nil, err
	}
	out.Raw = wrap.Result
	return &out, nil
}

// Experiment runs one full registry experiment by name: POST /v1/experiment.
// Text is the rendered table or figure exactly as lightwsp-bench prints it.
func (c *Client) Experiment(ctx context.Context, name string, opts ...CallOption) (text string, err error) {
	o := resolve(opts)
	req := struct {
		Name      string `json:"name"`
		TimeoutMS int64  `json:"timeout_ms,omitempty"`
	}{Name: name, TimeoutMS: o.timeoutMS()}
	var out struct {
		Text string `json:"text"`
	}
	if err := c.doJSON(ctx, http.MethodPost, "/v1/experiment", req, &out, opts); err != nil {
		return "", err
	}
	return out.Text, nil
}

// ExperimentInfo is one registry listing entry.
type ExperimentInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// Experiments lists the server's experiment registry: GET /v1/experiments.
func (c *Client) Experiments(ctx context.Context, opts ...CallOption) ([]ExperimentInfo, error) {
	var out []ExperimentInfo
	if err := c.doJSON(ctx, http.MethodGet, "/v1/experiments", nil, &out, opts); err != nil {
		return nil, err
	}
	return out, nil
}

// pathEscape narrows url.PathEscape to its one call site's needs.
func pathEscape(s string) string { return url.PathEscape(s) }
