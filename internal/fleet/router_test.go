package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeNode is a minimal backend: /healthz honoring a togglable health bit,
// /stats with fixed gauges, and an echo of every /v1/* request that
// identifies the node and replays the received body.
type fakeNode struct {
	name    string
	healthy atomic.Bool
	hits    atomic.Uint64
	ts      *httptest.Server
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	n := &fakeNode{name: name}
	n.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !n.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"in_flight":3,"queued":1,"draining":false}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		n.hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Node", n.name)
		fmt.Fprintf(w, `{"node":%q,"path":%q,"body":%q}`, n.name, r.URL.Path, body)
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func newTestFleet(t *testing.T, n int) ([]*fakeNode, *Router) {
	nodes := make([]*fakeNode, n)
	urls := make([]string, n)
	for i := range nodes {
		nodes[i] = newFakeNode(t, fmt.Sprintf("node%d", i))
		urls[i] = nodes[i].ts.URL
	}
	return nodes, NewRouter(RouterConfig{Nodes: urls})
}

// TestRouterKeyAffinity proves every request for one run key lands on the
// same backend, whatever the request count.
func TestRouterKeyAffinity(t *testing.T) {
	_, rt := newTestFleet(t, 3)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	want := ""
	for i := 0; i < 10; i++ {
		resp, err := http.Post(lb.URL+"/v1/run", "application/json",
			strings.NewReader(`{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Node string }
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if want == "" {
			want = out.Node
		} else if out.Node != want {
			t.Fatalf("request %d routed to %s, earlier ones to %s", i, out.Node, want)
		}
	}
	// A different key may route elsewhere, but must also be sticky.
	other := ""
	for i := 0; i < 5; i++ {
		resp, err := http.Post(lb.URL+"/v1/run", "application/json",
			strings.NewReader(`{"suite":"cpu2006","app":"lbm","scheme":"lightwsp"}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Node string }
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if other == "" {
			other = out.Node
		} else if out.Node != other {
			t.Fatalf("second key not sticky: %s then %s", other, out.Node)
		}
	}
}

// TestRouterBodyReplay proves the routed body survives the body-peek: the
// backend receives exactly what the client sent.
func TestRouterBodyReplay(t *testing.T) {
	_, rt := newTestFleet(t, 2)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	const sent = `{"suite":"cpu2006","app":"mcf","scheme":"lightwsp","timeout_ms":1234}`
	resp, err := http.Post(lb.URL+"/v1/run", "application/json", strings.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Body string }
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out.Body != sent {
		t.Fatalf("backend saw body %q, client sent %q", out.Body, sent)
	}
}

// TestRouterSessionAffinity proves session paths route by the ID segment.
func TestRouterSessionAffinity(t *testing.T) {
	_, rt := newTestFleet(t, 3)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	paths := []string{
		"/v1/session/sess-1",
		"/v1/session/sess-1/advance",
		"/v1/session/sess-1/resume",
	}
	want := ""
	for _, p := range paths {
		resp, err := http.Post(lb.URL+p, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Node string }
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if want == "" {
			want = out.Node
		} else if out.Node != want {
			t.Fatalf("path %s routed to %s, earlier session ops to %s", p, out.Node, want)
		}
	}
}

// TestRouterEjectsUnhealthy proves a 503-on-/healthz node leaves the ring
// on the next probe and its keys reroute, then return when it recovers.
func TestRouterEjectsUnhealthy(t *testing.T) {
	nodes, rt := newTestFleet(t, 3)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	getOwner := func() string {
		resp, err := http.Post(lb.URL+"/v1/run", "application/json",
			strings.NewReader(`{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Node string }
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		return out.Node
	}

	owner := getOwner()
	var ownerNode *fakeNode
	for _, n := range nodes {
		if n.name == owner {
			ownerNode = n
		}
	}
	ownerNode.healthy.Store(false)
	rt.CheckNow()
	if rt.Healthy() != true {
		t.Fatal("fleet with 2 healthy nodes reported unhealthy")
	}
	after := getOwner()
	if after == owner {
		t.Fatalf("key still routed to ejected node %s", owner)
	}
	ownerNode.healthy.Store(true)
	rt.CheckNow()
	if back := getOwner(); back != owner {
		t.Fatalf("recovered node did not regain its key: owner %s, got %s", owner, back)
	}
}

// TestRouterFailover proves a request to a dead owner fails over down the
// ladder before the poller notices, and the dead node is ejected.
func TestRouterFailover(t *testing.T) {
	nodes, rt := newTestFleet(t, 3)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	body := `{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`
	resp, err := http.Post(lb.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Node string }
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()

	for _, n := range nodes {
		if n.name == out.Node {
			n.ts.Close() // kill the owner without telling the poller
		}
	}
	resp, err = http.Post(lb.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out2 struct{ Node string }
	json.NewDecoder(resp.Body).Decode(&out2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out2.Node == out.Node || out2.Node == "" {
		t.Fatalf("failover failed: status %d node %q (dead owner %q)", resp.StatusCode, out2.Node, out.Node)
	}
	if rt.failovers.Load() == 0 {
		t.Fatal("failover counter not incremented")
	}
}

// TestRouterNoNodes proves total outage answers 503 with Retry-After.
func TestRouterNoNodes(t *testing.T) {
	nodes, rt := newTestFleet(t, 2)
	for _, n := range nodes {
		n.healthy.Store(false)
	}
	rt.CheckNow()
	lb := httptest.NewServer(rt)
	defer lb.Close()

	resp, err := http.Post(lb.URL+"/v1/run", "application/json",
		strings.NewReader(`{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestRouterBackpressurePassthrough proves a backend 429 (and its
// Retry-After) reaches the client verbatim — admission stays with nodes.
func TestRouterBackpressurePassthrough(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok"))
			return
		}
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"server busy"}`))
	}))
	defer busy.Close()

	rt := NewRouter(RouterConfig{Nodes: []string{busy.URL}})
	lb := httptest.NewServer(rt)
	defer lb.Close()

	resp, err := http.Post(lb.URL+"/v1/run", "application/json",
		strings.NewReader(`{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After %q, want 7", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "server busy") {
		t.Fatalf("backend error body lost: %q", body)
	}
}

// TestRouterMetrics smoke-checks the Prometheus exposition.
func TestRouterMetrics(t *testing.T) {
	nodes, rt := newTestFleet(t, 2)
	rt.CheckNow()
	nodes[0].healthy.Store(false)
	rt.CheckNow()

	var sb strings.Builder
	if err := rt.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"lightwsp_lb_node_up{",
		"lightwsp_lb_ring_size 1",
		"lightwsp_lb_rebalances_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRouteKey pins the one rule both tiers key a request by: run routes by
// the raw suite, app and scheme fields of the body, session routes by the
// path's ID or a create's body, everything else by nothing.
func TestRouteKey(t *testing.T) {
	for _, c := range []struct {
		method, path, body, want string
	}{
		{"POST", "/v1/run", `{"suite":"cpu2006","app":"mcf","scheme":"lightwsp"}`, "run|cpu2006/mcf/lightwsp"},
		{"POST", "/v1/run/stream", `{"suite":"cpu2006","app":"mcf","timeout_ms":5}`, "run|cpu2006/mcf/"},
		{"POST", "/v1/run-with-failure", `{"suite":"cpu2006","app":"mcf","fail_cycle":900}`, "run|cpu2006/mcf/"},
		// Failure requests have no scheme field; a client that sends one
		// still moves the key, the same way on the lb and on a node.
		{"POST", "/v1/run-with-failure", `{"suite":"cpu2006","app":"mcf","scheme":"baseline"}`, "run|cpu2006/mcf/baseline"},
		{"POST", "/v1/crashfuzz", `{"suite":"cpu2006","app":"fuzz-st","points":4}`, "run|cpu2006/fuzz-st/"},
		// A malformed body keys like an empty one; its owner answers the 400.
		{"POST", "/v1/run", `{"suite":"cpu2006",`, "run|//"},
		{"POST", "/v1/session", `{"id":"s1","suite":"cpu2006","app":"fuzz-st"}`, "session|s1"},
		// Without an ID the receiving node mints one and keys by it.
		{"POST", "/v1/session", `{"suite":"cpu2006","app":"fuzz-st"}`, ""},
		{"GET", "/v1/session", "", ""},
		{"GET", "/v1/session/s1", "", "session|s1"},
		{"DELETE", "/v1/session/s1", "", "session|s1"},
		{"POST", "/v1/session/s1/advance", `{"target":1000}`, "session|s1"},
		{"POST", "/v1/session/s1/resume", `{"last_seq":3}`, "session|s1"},
		{"GET", "/v1/session/", "", ""},
		{"POST", "/v1/compile", `{"suite":"cpu2006","app":"mcf"}`, ""},
		{"POST", "/v1/experiment", `{"name":"fig9"}`, ""},
		{"GET", "/healthz", "", ""},
		{"PUT", "/v1/blob/abc", "sealed bytes", ""},
		{"POST", "/v1/lease/abc", "", ""},
	} {
		if got := RouteKey(c.method, c.path, []byte(c.body)); got != c.want {
			t.Errorf("RouteKey(%s %s, %s) = %q, want %q", c.method, c.path, c.body, got, c.want)
		}
	}
}

// closingBody stands in for the request body an lb server hands its
// handler. net/http closes that body once the handler's response header
// goes out, so a read that comes later fails. Its bytes read as usual. A
// further read waits until the upstream has the request and the client has
// line 1, then fails as a closed body does; one that comes before any
// request went out returns io.EOF after 100 ms.
type closingBody struct {
	r        io.Reader
	upstream <-chan struct{} // closed once the upstream has the request
	seen     <-chan struct{} // closed once the client has line 1
}

func (b *closingBody) Read(p []byte) (int, error) {
	if n, _ := b.r.Read(p); n > 0 {
		return n, nil
	}
	select {
	case <-b.upstream:
		<-b.seen
		return 0, http.ErrBodyReadAfterClose
	case <-time.After(100 * time.Millisecond):
		return 0, io.EOF
	}
}

func (b *closingBody) Close() error { return nil }

// TestRouterStreamSurvivesBodyClose: a session stream reaches the client
// whole even when the lb's request body is closed while the owner is still
// writing. An lb that hands the body to the transport, which reads it once
// more after sending it, gets the closed-body error on that read; the
// transport then drops the owner's connection and the stream ends after
// line 1.
func TestRouterStreamSurvivesBodyClose(t *testing.T) {
	got, seen := make(chan struct{}), make(chan struct{})
	var gotOnce sync.Once
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotOnce.Do(func() { close(got) })
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"seq":1}`+"\n")
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-time.After(200 * time.Millisecond):
		}
		io.WriteString(w, `{"seq":2}`+"\n")
	}))
	defer upstream.Close()
	rt := NewRouter(RouterConfig{Nodes: []string{upstream.URL}})
	lb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = &closingBody{r: r.Body, upstream: got, seen: seen}
		rt.ServeHTTP(w, r)
	}))
	defer lb.Close()

	resp, err := http.Post(lb.URL+"/v1/session/s1/advance", "application/json", strings.NewReader(`{"target":400000}`))
	if err != nil {
		close(seen)
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	close(seen)
	if err != nil {
		t.Fatalf("line 1: %q, %v", line, err)
	}
	rest, err := io.ReadAll(br)
	if n := 1 + strings.Count(string(rest), "\n"); n != 2 || err != nil {
		t.Fatalf("client got %d of 2 lines (read error: %v)", n, err)
	}
}

// cutUpstream serves one NDJSON line, then drops the connection without
// ending the stream, as a node that dies mid-advance does.
func cutUpstream(t *testing.T) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"seq":1}`+"\n")
		w.(http.Flusher).Flush()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterAbortsCutStream: a stream the owner breaks off reaches the
// client broken, not as a short stream that ends cleanly, and the lb counts
// the forward.
func TestRouterAbortsCutStream(t *testing.T) {
	rt := NewRouter(RouterConfig{Nodes: []string{cutUpstream(t).URL}})
	lb := httptest.NewServer(rt)
	defer lb.Close()

	resp, err := http.Post(lb.URL+"/v1/session/s1/advance", "application/json", strings.NewReader(`{"target":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("cut stream read as complete: %q", body)
	}
	if string(body) != `{"seq":1}`+"\n" {
		t.Fatalf("before the cut the client got %q", body)
	}
	lb.Close() // waits for the lb's handler to finish its accounting
	if n := rt.forwarded.Load(); n != 1 {
		t.Fatalf("the cut forward counted %d times, want 1", n)
	}
}

// TestRouterFailoverAnyMethod: a POST whose body is not keyed (a session
// advance) still fails over when its owner is unreachable, because the lb
// holds the whole body.
func TestRouterFailoverAnyMethod(t *testing.T) {
	nodes, rt := newTestFleet(t, 3)
	lb := httptest.NewServer(rt)
	defer lb.Close()

	owner := rt.candidates(SessionRouteKey("s1"))[0]
	for _, n := range nodes {
		if n.ts.URL == owner {
			n.ts.Close()
		}
	}
	const sent = `{"target":1000}`
	resp, err := http.Post(lb.URL+"/v1/session/s1/advance", "application/json", strings.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Node, Body string }
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Node == "" || out.Body != sent {
		t.Fatalf("advance after owner death: status %d, node %q, body %q", resp.StatusCode, out.Node, out.Body)
	}
}

// TestRouterClientGoneKeepsNodes: a client that gives up before the
// response header leaves the ring as it was; the node is not at fault.
func TestRouterClientGoneKeepsNodes(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // net/http sees a closed connection only after the body
		<-r.Context().Done()
	}))
	defer slow.Close()
	rt := NewRouter(RouterConfig{Nodes: []string{slow.URL}})
	lb := httptest.NewServer(rt)

	hc := &http.Client{Timeout: 50 * time.Millisecond}
	if resp, err := hc.Post(lb.URL+"/v1/run", "application/json", strings.NewReader(`{"suite":"cpu2006","app":"mcf"}`)); err == nil {
		resp.Body.Close()
		t.Fatalf("status %d from a node that never answers", resp.StatusCode)
	}
	lb.Close() // waits for the lb's handler to return
	if !rt.Healthy() {
		t.Fatal("a client timeout ejected the only node")
	}
}
