package fleet

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lightwsp/internal/metrics"
)

// NodeStatus is the Router's last known view of one backend.
type NodeStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// InFlight and Queued are scraped from the node's /stats on each poll
	// (zero when the node is unreachable).
	InFlight int  `json:"in_flight"`
	Queued   int  `json:"queued"`
	Draining bool `json:"draining"`
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Nodes are the backend base URLs ("http://host:port"). Required.
	Nodes []string
	// PollInterval is the health-probe period (default 500ms).
	PollInterval time.Duration
	// ProbeTimeout bounds one /healthz or /stats probe (default 2s).
	ProbeTimeout time.Duration
	// Logger receives membership-change and failover lines; nil discards.
	Logger *slog.Logger
}

// Router is the lb's http.Handler: it routes each request to the ring
// owner of its routing key among the currently healthy nodes, streams the
// response back, and fails over down the preference ladder when the owner
// drops mid-request. Admission stays with the nodes — a 429 or 503 from a
// backend passes through verbatim, Retry-After included, so backpressure
// reaches clients no matter which tier noticed the overload first.
type Router struct {
	cfg   RouterConfig
	hc    *http.Client // proxy transport: no timeout, streams can live long
	probe *http.Client // health probes: short timeout

	log *slog.Logger

	mu     sync.Mutex
	status map[string]*NodeStatus
	ring   *Ring // healthy members only
	rr     uint64

	rebalances atomic.Uint64
	forwarded  atomic.Uint64
	failovers  atomic.Uint64
	noNodes    atomic.Uint64
}

// NewRouter builds a Router over cfg.Nodes; every node starts healthy
// (optimistic — the first poll corrects it, and an early request to a dead
// node fails over anyway).
func NewRouter(cfg RouterConfig) *Router {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	rt := &Router{
		cfg:    cfg,
		hc:     &http.Client{},
		probe:  &http.Client{Timeout: cfg.ProbeTimeout},
		log:    cfg.Logger,
		status: map[string]*NodeStatus{},
	}
	var healthy []string
	for _, n := range cfg.Nodes {
		n = strings.TrimRight(n, "/")
		if n == "" {
			continue
		}
		rt.status[n] = &NodeStatus{URL: n, Healthy: true}
		healthy = append(healthy, n)
	}
	rt.ring = NewRing(healthy)
	return rt
}

// Poll runs the health loop until ctx ends: GET /healthz decides ring
// membership (drain and durability degradation both answer 503 there, so
// both eject), GET /stats feeds the load gauges.
func (rt *Router) Poll(ctx context.Context) {
	t := time.NewTicker(rt.cfg.PollInterval)
	defer t.Stop()
	rt.CheckNow()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.CheckNow()
		}
	}
}

// CheckNow probes every node once and rebuilds the ring on membership
// change. Exposed for tests and for an initial synchronous probe.
func (rt *Router) CheckNow() {
	rt.mu.Lock()
	nodes := make([]string, 0, len(rt.status))
	for n := range rt.status {
		nodes = append(nodes, n)
	}
	rt.mu.Unlock()

	type result struct {
		node    string
		healthy bool
		stats   statsProbe
	}
	results := make(chan result, len(nodes))
	for _, n := range nodes {
		go func(n string) {
			healthy := rt.probeHealthz(n)
			var sp statsProbe
			if healthy {
				sp = rt.probeStats(n)
			}
			results <- result{n, healthy, sp}
		}(n)
	}
	for range nodes {
		r := <-results
		rt.setHealth(r.node, r.healthy, r.stats)
	}
}

type statsProbe struct {
	InFlight int  `json:"in_flight"`
	Queued   int  `json:"queued"`
	Draining bool `json:"draining"`
}

func (rt *Router) probeHealthz(node string) bool {
	resp, err := rt.probe.Get(node + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) probeStats(node string) (sp statsProbe) {
	resp, err := rt.probe.Get(node + "/stats")
	if err != nil {
		return sp
	}
	defer resp.Body.Close()
	json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&sp)
	return sp
}

// setHealth records one probe outcome, rebuilding the ring when a node
// changes state.
func (rt *Router) setHealth(node string, healthy bool, sp statsProbe) {
	rt.mu.Lock()
	st, ok := rt.status[node]
	if !ok {
		rt.mu.Unlock()
		return
	}
	changed := st.Healthy != healthy
	st.Healthy = healthy
	st.InFlight, st.Queued, st.Draining = sp.InFlight, sp.Queued, sp.Draining
	if changed {
		var healthy []string
		for n, s := range rt.status {
			if s.Healthy {
				healthy = append(healthy, n)
			}
		}
		rt.ring = NewRing(healthy)
		rt.rebalances.Add(1)
	}
	ringLen := rt.ring.Len()
	rt.mu.Unlock()
	if changed && rt.log != nil {
		rt.log.Info("fleet membership change", "node", node, "healthy", healthy, "ring_size", ringLen)
	}
}

// Status snapshots every node's last probe, sorted by URL.
func (rt *Router) Status() []NodeStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]NodeStatus, 0, len(rt.status))
	for _, n := range NewRing(keys(rt.status)).Nodes() {
		out = append(out, *rt.status[n])
	}
	return out
}

func keys(m map[string]*NodeStatus) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Healthy reports whether at least one backend is in the ring — the lb's
// own /healthz answer.
func (rt *Router) Healthy() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.Len() > 0
}

// candidates returns the healthy nodes to try for a request, in order:
// the key's preference ladder, or round-robin for unkeyed requests.
func (rt *Router) candidates(key string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.ring.Len() == 0 {
		return nil
	}
	if key != "" {
		return rt.ring.Owners(key)
	}
	nodes := rt.ring.Nodes()
	i := int(rt.rr % uint64(len(nodes)))
	rt.rr++
	return append(nodes[i:], nodes[:i]...)
}

// ServeHTTP routes one request. It reads the body whole first, so every
// attempt sends the same bytes and none depends on the client's connection:
// any request fails over to the next candidate while nothing has been
// written back.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	cands := rt.candidates(RouteKey(r.Method, r.URL.Path, body))
	if len(cands) == 0 {
		rt.noNodes.Add(1)
		w.Header().Set("Retry-After", "10")
		writeJSONError(w, http.StatusServiceUnavailable, "no healthy nodes")
		return
	}
	for i, node := range cands {
		written, err := Proxy(w, r, body, node, rt.hc)
		if written {
			rt.forwarded.Add(1)
			if i > 0 {
				rt.failovers.Add(1)
			}
			if err != nil {
				panic(http.ErrAbortHandler) // the stream was cut; see Proxy
			}
			return
		}
		if r.Context().Err() != nil {
			// The client went away; the node is not at fault.
			return
		}
		// Nothing went out: the node is unreachable. Eject it immediately
		// (the poller will re-add it when it recovers) and try the next
		// candidate.
		rt.setHealth(node, false, statsProbe{})
		if rt.log != nil {
			rt.log.Warn("backend unreachable, failing over", "node", node, "path", r.URL.Path, "error", err)
		}
	}
	rt.noNodes.Add(1)
	w.Header().Set("Retry-After", "10")
	writeJSONError(w, http.StatusServiceUnavailable, "no reachable node")
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WriteProm renders the Router's metrics in Prometheus text format.
func (rt *Router) WriteProm(w io.Writer) error {
	p := metrics.NewProm(w)
	p.Family("lightwsp_lb_node_up", "gauge", "Per-backend health as of the last probe.")
	for _, st := range rt.Status() {
		up := 0.0
		if st.Healthy {
			up = 1
		}
		p.Sample("lightwsp_lb_node_up", []metrics.Label{{Name: "node", Value: st.URL}}, up)
	}
	p.Family("lightwsp_lb_node_in_flight", "gauge", "Per-backend in-flight requests from the last /stats scrape.")
	for _, st := range rt.Status() {
		p.Sample("lightwsp_lb_node_in_flight", []metrics.Label{{Name: "node", Value: st.URL}}, float64(st.InFlight))
	}
	p.Family("lightwsp_lb_ring_size", "gauge", "Healthy nodes currently in the ring.")
	rt.mu.Lock()
	ringLen := rt.ring.Len()
	rt.mu.Unlock()
	p.Sample("lightwsp_lb_ring_size", nil, float64(ringLen))
	p.Family("lightwsp_lb_rebalances_total", "counter", "Ring membership changes observed.")
	p.Sample("lightwsp_lb_rebalances_total", nil, float64(rt.rebalances.Load()))
	p.Family("lightwsp_lb_forwarded_total", "counter", "Requests proxied to a backend.")
	p.Sample("lightwsp_lb_forwarded_total", nil, float64(rt.forwarded.Load()))
	p.Family("lightwsp_lb_failovers_total", "counter", "Requests served by a non-first-choice node after the owner was unreachable.")
	p.Sample("lightwsp_lb_failovers_total", nil, float64(rt.failovers.Load()))
	p.Family("lightwsp_lb_no_nodes_total", "counter", "Requests rejected because no backend was reachable.")
	p.Sample("lightwsp_lb_no_nodes_total", nil, float64(rt.noNodes.Load()))
	return p.Err()
}
