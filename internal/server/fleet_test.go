package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lightwsp/internal/experiments"
	"lightwsp/internal/fleet"
	"lightwsp/internal/obs"
)

// fleetNode is one in-process fleet member: a Server plus its HTTP front.
type fleetNode struct {
	srv *Server
	ts  *httptest.Server
	url string
}

// newFleet boots n fleet members that know each other through the ring and
// share the L2 directory store (and, when sessionDir is non-empty, one
// session directory — the shared-storage topology the CI lane uses).
// Listeners are created first so every node's Config can name the full
// membership before any of them serves.
func newFleet(t *testing.T, n int, sessionDir string) []*fleetNode {
	t.Helper()
	l2dir := t.TempDir()
	nodes := make([]*fleetNode, n)
	peers := make([]string, n)
	for i := range nodes {
		ts := httptest.NewUnstartedServer(nil)
		nodes[i] = &fleetNode{ts: ts, url: "http://" + ts.Listener.Addr().String()}
		peers[i] = nodes[i].url
	}
	for i, nd := range nodes {
		nd.srv = New(Config{
			Workers: 2,
			// A key's owner absorbs the whole fleet's traffic for that key
			// (direct + forwarded); give the gate room for the fan-in.
			QueueDepth: 32,
			CacheDir:   t.TempDir(),
			SessionDir: sessionDir,
			FleetSelf:  peers[i],
			FleetPeers: peers,
			L2:         experiments.NewBlobCache(l2dir),
		})
		nd.ts.Config.Handler = nd.srv.Handler()
		nd.ts.Start()
		t.Cleanup(nd.ts.Close)
	}
	return nodes
}

// fleetFresh sums fresh-simulation counts across the given nodes.
func fleetFresh(nodes []*fleetNode) int {
	total := 0
	for _, nd := range nodes {
		if nd == nil {
			continue
		}
		total += nd.srv.runner.Counters().Fresh
	}
	return total
}

// TestFleetForwardingRoutesToOneOwner is the ring contract over HTTP: the
// same run request sent to every node lands on one owner (every response
// names the same X-LightWSP-Served-By), answers byte-identically, and the
// fleet executes exactly one fresh simulation.
func TestFleetForwardingRoutesToOneOwner(t *testing.T) {
	nodes := newFleet(t, 3, "")

	const perNode = 3
	type answer struct {
		body     []byte
		servedBy string
	}
	answers := make([]answer, len(nodes)*perNode)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		for j := 0; j < perNode; j++ {
			wg.Add(1)
			go func(slot int, url string) {
				defer wg.Done()
				status, body, hdr := post(t, url+"/v1/run", fuzzStRun)
				if status != http.StatusOK {
					t.Errorf("run via %s: status %d: %s", url, status, body)
					return
				}
				answers[slot] = answer{body: body, servedBy: hdr.Get(fleet.ServedByHeader)}
			}(i*perNode+j, nd.url)
		}
	}
	wg.Wait()

	for i := 1; i < len(answers); i++ {
		if !bytes.Equal(answers[0].body, answers[i].body) {
			t.Fatalf("answer %d differs:\n%s\n%s", i, answers[0].body, answers[i].body)
		}
		if answers[i].servedBy != answers[0].servedBy {
			t.Fatalf("answer %d served by %q, answer 0 by %q — key has two owners",
				i, answers[i].servedBy, answers[0].servedBy)
		}
	}
	if answers[0].servedBy == "" {
		t.Fatal("fleet responses missing the Served-By header")
	}
	if got := fleetFresh(nodes); got != 1 {
		t.Fatalf("fleet ran %d fresh simulations for one key, want exactly 1", got)
	}
}

// TestFleetLeaseSingleflightWithoutRing drops the ring and keeps only the
// shared L2: three solo nodes hit with the same request concurrently must
// still simulate exactly once fleet-wide, arbitrated by the store lease,
// with every answer byte-identical. This is the topology a fleet degrades
// to when forwarding is unavailable, so it has to hold on its own.
func TestFleetLeaseSingleflightWithoutRing(t *testing.T) {
	l2dir := t.TempDir()
	nodes := make([]*fleetNode, 3)
	for i := range nodes {
		srv, ts := newTestServer(t, Config{
			Workers:  2,
			CacheDir: t.TempDir(),
			L2:       experiments.NewBlobCache(l2dir),
		})
		nodes[i] = &fleetNode{srv: srv, ts: ts, url: ts.URL}
	}

	bodies := make([][]byte, len(nodes))
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			status, body, _ := post(t, url+"/v1/run", fuzzStRun)
			if status != http.StatusOK {
				t.Errorf("node %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i, nd.url)
	}
	wg.Wait()

	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("node %d answer differs:\n%s\n%s", i, bodies[0], bodies[i])
		}
	}
	if got := fleetFresh(nodes); got != 1 {
		t.Fatalf("%d fresh simulations across solo nodes sharing L2, want exactly 1 (lease singleflight)", got)
	}
}

// TestFleetNodeKillRehash kills a run key's owner and re-asks a survivor:
// the forward fails, the survivor serves locally, and the shared L2 hands
// it the owner's cached result — byte-identical, zero new simulations.
func TestFleetNodeKillRehash(t *testing.T) {
	nodes := newFleet(t, 3, "")

	status, first, hdr := post(t, nodes[0].url+"/v1/run", fuzzStRun)
	if status != http.StatusOK {
		t.Fatalf("first run: status %d: %s", status, first)
	}
	owner := hdr.Get(fleet.ServedByHeader)
	if owner == "" {
		t.Fatal("first response missing Served-By")
	}

	var victim *fleetNode
	survivors := nodes[:0:0]
	for _, nd := range nodes {
		if nd.url == owner {
			victim = nd
		} else {
			survivors = append(survivors, nd)
		}
	}
	if victim == nil || len(survivors) != 2 {
		t.Fatalf("owner %q is not a fleet member", owner)
	}
	victim.ts.Close()

	for _, nd := range survivors {
		status, body, hdr := post(t, nd.url+"/v1/run", fuzzStRun)
		if status != http.StatusOK {
			t.Fatalf("post-kill run via %s: status %d: %s", nd.url, status, body)
		}
		if !bytes.Equal(first, body) {
			t.Fatalf("rehashed answer differs from the owner's:\n%s\n%s", first, body)
		}
		// The key's new owner is one of the survivors; a non-owner survivor
		// forwards there. Either way the dead node must not be named.
		if got := hdr.Get(fleet.ServedByHeader); got == "" || got == owner {
			t.Fatalf("post-kill request served by %q (dead owner %q)", got, owner)
		}
	}
	if got := fleetFresh(survivors); got != 0 {
		t.Fatalf("survivors ran %d fresh simulations, want 0 (L2 hit)", got)
	}
}

// TestFleetSessionResumesOnNewOwner advances a session through the fleet,
// kills the node that owns it, and resumes through a survivor: the shared
// session directory plus L2 snapshots let the new node reopen the session
// and replay its stream byte-identically.
func TestFleetSessionResumesOnNewOwner(t *testing.T) {
	sessionDir := t.TempDir()
	nodes := newFleet(t, 3, sessionDir)

	create := SessionCreateRequest{
		ID: "fleet-sess", Suite: "cpu2006", App: "fuzz-st",
		Scheme: "lightwsp", SnapshotEvery: 600,
	}
	status, body, hdr := post(t, nodes[0].url+"/v1/session", create)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	owner := hdr.Get(fleet.ServedByHeader)

	status, live := postStream(t, nodes[0].url+"/v1/session/fleet-sess/advance",
		SessionAdvanceRequest{Target: 1300})
	if status != http.StatusOK || len(live) == 0 {
		t.Fatalf("advance: status %d, %d lines", status, len(live))
	}

	var victim *fleetNode
	survivors := nodes[:0:0]
	for _, nd := range nodes {
		if nd.url == owner {
			victim = nd
		} else {
			survivors = append(survivors, nd)
		}
	}
	if victim == nil {
		t.Fatalf("session owner %q is not a fleet member", owner)
	}
	// Abandon the owner the way a SIGKILL would: its SessionStore never
	// closes, the survivors reopen the shared directory cold.
	victim.ts.Close()

	nd := survivors[0]
	status, raw, _ := post(t, nd.url+"/v1/session/fleet-sess/resume",
		SessionResumeRequest{LastSeq: 0})
	if status != http.StatusOK {
		t.Fatalf("resume via survivor: status %d: %s", status, raw)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], `"type":"resume"`) {
		t.Fatalf("resume stream missing header: %v", lines)
	}
	replay := lines[1:]
	if len(replay) != len(live) {
		t.Fatalf("survivor replayed %d events, owner streamed %d", len(replay), len(live))
	}
	for i := range live {
		if replay[i] != live[i] {
			t.Fatalf("event %d differs after failover:\nowner:    %s\nsurvivor: %s",
				i, live[i], replay[i])
		}
	}

	// The survivor now reports the session at its exact position.
	var st experiments.SessionStatus
	resp, err := http.Get(nd.url + "/v1/session/fleet-sess")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after failover: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "fleet-sess" || st.Total != 1300 {
		t.Fatalf("failed-over session at %+v, want total 1300", st)
	}
}

// TestForwardAbortsCutStream: a stream the owner breaks off mid-way
// reaches the client through a forwarding node as a broken stream, not as
// a short one that ends cleanly; the node accounts for the request, counts
// the forward, names the peer on the access line and counts no panic.
func TestForwardAbortsCutStream(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	defer owner.Close()
	ts := httptest.NewUnstartedServer(nil)
	self := "http://" + ts.Listener.Addr().String()
	peers := []string{self, owner.URL}
	logs := &logBuffer{}
	log, err := obs.NewLogger(logs, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, FleetSelf: self, FleetPeers: peers, Logger: log})
	ts.Config.Handler = s.Handler()
	ts.Start()
	defer ts.Close()

	// A session the ring gives to the cutting owner.
	ring := fleet.NewRing(peers)
	id := ""
	for i := 0; id == ""; i++ {
		if c := fmt.Sprintf("cut-%d", i); ring.Owner(fleet.SessionRouteKey(c)) == owner.URL {
			id = c
		}
	}
	resp, err := http.Post(self+"/v1/session/"+id+"/advance", "application/json",
		strings.NewReader(`{"target":1000}`))
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
	ts.Close() // waits for the node's handler to finish its accounting
	if n := s.tel.panics.Load(); n != 0 {
		t.Fatalf("an aborted forward counted %d panics", n)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := `lightwsp_http_requests_total{endpoint="/v1/session/advance",code="200"} 1`; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("the aborted request is not in /metrics as %s", want)
	}
	if want := `lightwsp_fleet_forwards_total{direction="out"} 1`; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("the cut forward is not in /metrics as %s", want)
	}
	if want := `"source":"forwarded:` + owner.URL + `"`; !strings.Contains(logs.String(), want) {
		t.Fatalf("the access line does not name the peer (%s):\n%s", want, logs.String())
	}
}
