package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"lightwsp/client"
	"lightwsp/internal/experiments"
	"lightwsp/internal/fleet"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/machine"
	"lightwsp/internal/server"
)

// fleet_rw sizing.
const (
	fleetNodes = 3
	// Sessions run CPU2006 hmmer (734,634 cycles) in Advance steps of
	// advanceStep cycles with a snapshot every sessionEvery cycles: 30
	// advances per session, 7 of which (23%) carry a snapshot, so p50 is a
	// plain advance and p90 a snapshot advance.
	sessionEvery = 100_000
	advanceStep  = 25_000
	// readSeqLen is the length of the seeded Zipf read sequence; it wraps.
	readSeqLen = 1 << 17
	// fleetWindow is how long each window lasts. An untraced run is a row
	// of windows, the rounds its end-to-end medians are taken over; a traced
	// run alternates untraced and traced windows.
	fleetWindow = 2 * time.Second
	// probeSamples is the number of warm reads in each traced latency probe.
	probeSamples = 300
)

var sessionSpec = client.SessionSpec{Suite: "CPU2006", App: "hmmer", Scheme: "lightwsp", SnapshotEvery: sessionEvery}

// fleetNode is one in-process fleet member listening on loopback.
type fleetNode struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed once Serve returns
}

// fleetRig is a booted fleet: 3 nodes, each with its own cache and session
// directory, sharing one L2 blob store behind a timing wrapper and one
// timing filesystem, fronted by an in-process fleet.Router.
type fleetRig struct {
	nodes    []*fleetNode
	lb       *fleetNode
	stopPoll context.CancelFunc
	pollDone chan struct{}
	ring     *fleet.Ring
	l2       *timedStore
	fs       *timedFS
	// warm holds the set-up response's Stats bytes per sweep spec; coldMS
	// the set-up fetch latencies.
	warm   [][]byte
	coldMS []float64
}

// serve starts an HTTP server for h on ln.
func serve(ln net.Listener, h http.Handler) *fleetNode {
	n := &fleetNode{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n
}

// newHTTPClient is one caller's transport: at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// bootFleet starts the fleet under dir and fetches every sweep run once
// through the lb — the cold path: lease, simulate, seal and write, publish
// to L2.
func bootFleet(rc *runConfig, dir string, runs []simRun) (*fleetRig, error) {
	rig := &fleetRig{
		l2: newTimedStore(experiments.NewBlobCache(filepath.Join(dir, "l2"))),
		fs: newTimedFS(hostfs.Disk()),
	}
	// Listeners first, so every node's config can name the full membership.
	lns := make([]net.Listener, fleetNodes)
	peers := make([]string, fleetNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], peers[i] = ln, "http://"+ln.Addr().String()
	}
	for i, ln := range lns {
		srv := server.New(server.Config{
			Workers:    callers,
			CacheDir:   filepath.Join(dir, fmt.Sprintf("node%d", i), "cache"),
			SessionDir: filepath.Join(dir, fmt.Sprintf("node%d", i), "sessions"),
			FleetSelf:  peers[i],
			FleetPeers: peers,
			L2:         rig.l2,
			SessionFS:  rig.fs,
		})
		n := serve(ln, srv.Handler())
		n.srv = srv
		rig.nodes = append(rig.nodes, n)
	}
	rig.ring = fleet.NewRing(peers)

	router := fleet.NewRouter(fleet.RouterConfig{Nodes: peers})
	pollCtx, stop := context.WithCancel(context.Background())
	rig.stopPoll, rig.pollDone = stop, make(chan struct{})
	go func() {
		defer close(rig.pollDone)
		router.Poll(pollCtx)
	}()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		router.WriteProm(w)
	})
	mux.Handle("/", router)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.teardown()
		return nil, err
	}
	rig.lb = serve(ln, mux)

	hc := newHTTPClient(callers)
	defer hc.CloseIdleConnections()
	c := client.New(rig.lb.url, client.WithHTTPClient(hc))
	rig.warm = make([][]byte, len(runs))
	rig.coldMS = make([]float64, len(runs))
	var mu sync.Mutex
	var firstErr error
	closedLoop(len(runs), func(i int) {
		t0 := time.Now()
		rr, err := c.Run(context.Background(), runs[i].suite, runs[i].app, runs[i].scheme)
		rig.coldMS[i] = time.Since(t0).Seconds() * 1e3
		if err != nil {
			mu.Lock()
			firstErr = errors.Join(firstErr, fmt.Errorf("cold fetch %s: %w", runs[i].key(), err))
			mu.Unlock()
			return
		}
		rig.warm[i] = rr.Stats
		var st machine.Stats
		if err := json.Unmarshal(rr.Stats, &st); err != nil {
			rc.tally.op(fmt.Errorf("cold fetch %s: %w", runs[i].key(), err))
			return
		}
		rc.tally.op(checkDigest(rc.exp, runs[i].sweepSpec, &st))
	})
	if firstErr != nil {
		rig.teardown()
		return nil, firstErr
	}
	return rig, nil
}

// teardown stops the lb, its poller and every node, and waits for each.
func (rig *fleetRig) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if rig.lb != nil {
		rig.lb.hs.Shutdown(ctx)
		<-rig.lb.done
	}
	rig.stopPoll()
	<-rig.pollDone
	for _, n := range rig.nodes {
		n.srv.Drain(ctx)
		n.hs.Shutdown(ctx)
		<-n.done
	}
}

// rwPhase is one closed-loop phase of reads and writes.
type rwPhase struct {
	wall            float64
	readMS, writeMS []float64
	plainMS, snapMS []float64 // writeMS split by whether a snapshot ran
	// directPlainMS and directSnapMS are Session.Advance latencies on the
	// benchmark's own session store, under the same reader load.
	directPlainMS, directSnapMS []float64
	syncs, syncNS               int64 // durability barriers during the phase
	written                     int64 // bytes written during the phase
}

// add folds another phase into ph.
func (ph *rwPhase) add(o rwPhase) {
	ph.wall += o.wall
	ph.readMS = append(ph.readMS, o.readMS...)
	ph.writeMS = append(ph.writeMS, o.writeMS...)
	ph.plainMS = append(ph.plainMS, o.plainMS...)
	ph.snapMS = append(ph.snapMS, o.snapMS...)
	ph.directPlainMS = append(ph.directPlainMS, o.directPlainMS...)
	ph.directSnapMS = append(ph.directSnapMS, o.directSnapMS...)
	ph.syncs += o.syncs
	ph.syncNS += o.syncNS
	ph.written += o.written
}

// readWrite runs the reader and the writer connection for d: the reader
// calls client.Run over the seeded Zipf sequence of warm keys, starting at
// *cursor; the writer creates hmmer sessions, advances each to done in
// advanceStep steps, checks its last pm_hash and deletes it. Sessions are
// numbered from *sessionN. tr, when non-nil, gets one span per op. direct,
// when non-nil, is the benchmark's own session store: after each fleet
// session the writer runs the same session on it, while the reader goes on.
func (rig *fleetRig) readWrite(rc *runConfig, runs []simRun, seq []int, cursor, sessionN *int, d time.Duration, tr *tracer, direct *experiments.SessionStore) rwPhase {
	var ph rwPhase
	syncs0, syncNS0, written0 := rig.fs.syncs.Load(), rig.fs.syncNS.Load(), rig.fs.written.Load()
	deadline := time.Now().Add(d)
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hc := newHTTPClient(1)
		defer hc.CloseIdleConnections()
		c := client.New(rig.lb.url, client.WithHTTPClient(hc))
		for ; time.Now().Before(deadline); *cursor++ {
			k := seq[*cursor%len(seq)]
			id := tr.begin("client.read", int64(*cursor), -1)
			start := time.Now()
			rr, err := c.Run(context.Background(), runs[k].suite, runs[k].app, runs[k].scheme)
			ph.readMS = append(ph.readMS, time.Since(start).Seconds()*1e3)
			tr.end(id)
			if err == nil && !bytes.Equal(rr.Stats, rig.warm[k]) {
				err = fmt.Errorf("read %s: stats differ from the set-up response", runs[k].key())
			}
			rc.tally.op(err)
		}
	}()
	go func() {
		defer wg.Done()
		hc := newHTTPClient(1)
		defer hc.CloseIdleConnections()
		c := client.New(rig.lb.url, client.WithHTTPClient(hc))
		for time.Now().Before(deadline) {
			id := fmt.Sprintf("pb%d-%d", rc.seed, *sessionN)
			*sessionN++
			rig.session(rc, c, id, deadline, tr, &ph)
			if direct != nil && time.Now().Before(deadline) {
				plain, snap, pmHash, err := directSession(direct, "direct-"+id, deadline, tr)
				if err == nil && pmHash != "" && pmHash != rc.exp.SessionPMHash {
					err = fmt.Errorf("direct session %s finished with pm_hash %s, committed %s", id, pmHash, rc.exp.SessionPMHash)
				}
				rc.tally.op(err)
				ph.directPlainMS = append(ph.directPlainMS, plain...)
				ph.directSnapMS = append(ph.directSnapMS, snap...)
			}
		}
	}()
	wg.Wait()
	ph.wall = time.Since(t0).Seconds()
	ph.syncs = rig.fs.syncs.Load() - syncs0
	ph.syncNS = rig.fs.syncNS.Load() - syncNS0
	ph.written = rig.fs.written.Load() - written0
	return ph
}

// advanceEvent is the part of a session's "advance" event the writer checks.
type advanceEvent struct {
	Done   bool   `json:"done"`
	PMHash string `json:"pm_hash"`
}

// session drives one session until it finishes or the deadline passes.
// Every advance is one op; a failed create or delete counts as a failed op.
func (rig *fleetRig) session(rc *runConfig, c *client.Client, id string, deadline time.Time, tr *tracer, ph *rwPhase) {
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, id, sessionSpec); err != nil {
		rc.tally.op(fmt.Errorf("create session %s: %w", id, err))
		return
	}
	defer func() {
		if err := c.DeleteSession(ctx, id); err != nil {
			rc.tally.op(fmt.Errorf("delete session %s: %w", id, err))
		}
	}()
	for target := uint64(advanceStep); time.Now().Before(deadline); target += advanceStep {
		var last advanceEvent
		snap := false
		span := tr.begin("client.write", int64(target), -1)
		start := time.Now()
		err := c.Advance(ctx, id, target, func(ev client.StreamEvent) error {
			switch ev.Type {
			case "snapshot":
				snap = true
			case "advance":
				return json.Unmarshal(ev.Raw, &last)
			}
			return nil
		})
		ms := time.Since(start).Seconds() * 1e3
		tr.end(span)
		ph.writeMS = append(ph.writeMS, ms)
		if snap {
			ph.snapMS = append(ph.snapMS, ms)
		} else {
			ph.plainMS = append(ph.plainMS, ms)
		}
		if err == nil && last.Done && last.PMHash != rc.exp.SessionPMHash {
			err = fmt.Errorf("session %s finished with pm_hash %s, committed %s", id, last.PMHash, rc.exp.SessionPMHash)
		}
		rc.tally.op(err)
		if err != nil || last.Done {
			return
		}
	}
}

// scrape sums the Prometheus series of the given /metrics endpoints.
func scrape(urls ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if v, err := strconv.ParseFloat(line[i+1:], 64); i > 0 && err == nil {
				out[line[:i]] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (rig *fleetRig) nodeURLs() []string {
	var out []string
	for _, n := range rig.nodes {
		out = append(out, n.url)
	}
	return out
}

// freshRuns is the fleet-wide count of fresh simulations.
func (rig *fleetRig) freshRuns() (float64, error) {
	m, err := scrape(rig.nodeURLs()...)
	return m[`lightwsp_runs_total{source="fresh"}`], err
}

func runFleetRW(_ context.Context, rc *runConfig) (*result, error) {
	runs, err := resolveSweep()
	if err != nil {
		return nil, err
	}
	var rig *fleetRig
	boots := 0
	setupS, err := timedSetups(3, func() error {
		boots++
		var err error
		rig, err = bootFleet(rc, filepath.Join(rc.dir, fmt.Sprintf("boot%d", boots)), runs)
		return err
	}, func() { rig.teardown() })
	if err != nil {
		return nil, err
	}
	defer rig.teardown()
	freshSetup, err := rig.freshRuns()
	if err != nil {
		return nil, err
	}
	seq := zipfSequence(rc.seed, readSeqLen, len(runs))
	cursor, sessionN := 0, 0
	res := &result{}
	if !rc.trace {
		n := max(1, int(rc.duration()/fleetWindow))
		var rounds []round
		for i := 0; i < n; i++ {
			ph := rig.readWrite(rc, runs, seq, &cursor, &sessionN, rc.duration()/time.Duration(n), nil, nil)
			fmt.Fprintf(os.Stderr, "perfbench: window %d: %.1f reads/s, %.1f writes/s\n",
				i, float64(len(ph.readMS))/ph.wall, float64(len(ph.writeMS))/ph.wall)
			rounds = append(rounds, round{wall: ph.wall, ops: len(ph.readMS) + len(ph.writeMS)})
		}
		reportRounds(res, setupS, rounds)
		return res, nil
	}

	direct, err := experiments.OpenSessionStoreFS(filepath.Join(rc.dir, "direct"), hostfs.Disk())
	if err != nil {
		return nil, err
	}
	defer direct.Close()
	tr := newTracer()
	var base, traced rwPhase
	gcCPU, allocB := alternate(rc.duration(), func() {
		base.add(rig.readWrite(rc, runs, seq, &cursor, &sessionN, fleetWindow, nil, nil))
	}, func() {
		traced.add(rig.readWrite(rc, runs, seq, &cursor, &sessionN, fleetWindow, tr, direct))
	})
	probe, err := rig.probeReads(rc, runs, seq, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.write(spansPath("fleet_rw", rc.seed)); err != nil {
		return nil, err
	}
	nodes, err := scrape(rig.nodeURLs()...)
	if err != nil {
		return nil, err
	}
	lb, err := scrape(rig.lb.url)
	if err != nil {
		return nil, err
	}

	if err := reportClient(res, base); err != nil {
		return nil, err
	}
	perOp := func(total, n int64) float64 { return float64(total) / float64(max(n, 1)) }
	res.set("server.cold_run_ms", median(rig.coldMS), "ms")
	res.set("fleet.lb_hop_ms", median(probe.lbMS)-median(probe.directMS), "ms")
	res.set("server.read_handler_us", median(probe.handlerUS), "us")
	res.set("server.http_loopback_us", median(probe.directMS)*1e3-median(probe.handlerUS), "us")
	res.set("experiments.advance_plain_ms", median(traced.directPlainMS), "ms")
	res.set("experiments.advance_snap_ms", median(traced.directSnapMS), "ms")
	res.set("server.advance_overhead_ms", median(traced.plainMS)-median(traced.directPlainMS), "ms")
	res.set("hostfs.syncs", float64(traced.syncs), "count")
	res.set("hostfs.sync_ms", perOp(traced.syncNS, traced.syncs)/1e6, "ms")
	res.set("hostfs.write_mb", float64(traced.written)/(1<<20), "MB")
	res.set("experiments.l2_reads", float64(rig.l2.reads.Load()), "count")
	res.set("experiments.l2_read_ms", perOp(rig.l2.readNS.Load(), rig.l2.reads.Load())/1e6, "ms")
	res.set("experiments.l2_writes", float64(rig.l2.writes.Load()), "count")
	res.set("experiments.l2_write_ms", perOp(rig.l2.writeNS.Load(), rig.l2.writes.Load())/1e6, "ms")
	res.set("experiments.lease_claims", float64(rig.l2.claims.Load()), "count")
	for name, series := range map[string]string{
		"experiments.runs_fresh":      `lightwsp_runs_total{source="fresh"}`,
		"experiments.runs_mem_cache":  `lightwsp_runs_total{source="mem_cache"}`,
		"experiments.runs_disk_cache": `lightwsp_runs_total{source="disk_cache"}`,
		"experiments.runs_fleet":      `lightwsp_runs_total{source="fleet"}`,
		"experiments.store_l1_hits":   `lightwsp_store_reads_total{outcome="l1_hit"}`,
		"experiments.store_l2_hits":   `lightwsp_store_reads_total{outcome="l2_hit"}`,
		"experiments.store_misses":    `lightwsp_store_reads_total{outcome="miss"}`,
		"experiments.snapshots":       `lightwsp_session_snapshots_total`,
		"fleet.forwards":              `lightwsp_fleet_forwards_total{direction="out"}`,
	} {
		res.set(name, nodes[series], "count")
	}
	// Reads are memo hits by design: a fresh simulation after set-up
	// counts as a failed op.
	freshAfter := nodes[`lightwsp_runs_total{source="fresh"}`] - freshSetup
	if freshAfter > 0 {
		rc.tally.op(fmt.Errorf("%g fresh simulations after set-up, want 0", freshAfter))
	}
	res.set("experiments.runs_fresh_after_setup", freshAfter, "count")
	res.set("server.rejected", nodes[`lightwsp_requests_rejected_total{reason="busy"}`]+
		nodes[`lightwsp_requests_rejected_total{reason="draining"}`], "count")
	res.set("fleet.lb_failovers", lb[`lightwsp_lb_failovers_total`], "count")
	res.set("go.gc_cpu_s", gcCPU, "s")
	res.set("go.alloc_mb", allocB/(1<<20), "MB")
	res.set("trace.overhead_pct", overheadPct(float64(len(base.readMS))/base.wall, float64(len(traced.readMS))/traced.wall), "%")
	return res, nil
}

// reportClient sets each op class's rate and latency as the client sees
// them, over the untraced windows of a traced run.
func reportClient(res *result, ph rwPhase) error {
	for _, c := range []struct {
		class string
		ms    []float64
	}{{"read", ph.readMS}, {"write", ph.writeMS}} {
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50", 0.5}, {"p90", 0.9}} {
			v, err := percentile(c.ms, q.p)
			if err != nil {
				return fmt.Errorf("%ss: %w", c.class, err)
			}
			res.set("client."+c.class+"_"+q.name+"_ms", v, "ms")
		}
		res.set("client."+c.class+"s_per_s", float64(len(c.ms))/ph.wall, "1/s")
	}
	return nil
}

// readProbe holds the traced run's warm-read latency samples.
type readProbe struct {
	lbMS, directMS, handlerUS []float64
}

// probeReads sends probeSamples warm reads through the lb, the same reads
// straight to each key's ring owner, and the same requests into the
// owner's handler in process with no socket.
func (rig *fleetRig) probeReads(rc *runConfig, runs []simRun, seq []int, tr *tracer) (readProbe, error) {
	var p readProbe
	byURL := map[string]*fleetNode{}
	clients := map[string]*client.Client{}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	for _, n := range append(rig.nodes, rig.lb) {
		byURL[n.url] = n
		clients[n.url] = client.New(n.url, client.WithHTTPClient(hc))
	}
	ctx := context.Background()
	for j := 0; j < probeSamples; j++ {
		r := runs[seq[j]]
		owner := rig.ring.Owner(fleet.RunRouteKey(r.suite, r.app, r.scheme))
		for _, via := range []struct {
			url, span string
			out       *[]float64
		}{{rig.lb.url, "fleet.lb_read", &p.lbMS}, {owner, "server.direct_read", &p.directMS}} {
			id := tr.begin(via.span, int64(j), -1)
			_, err := clients[via.url].Run(ctx, r.suite, r.app, r.scheme)
			*via.out = append(*via.out, tr.end(id)*1e3)
			if err != nil {
				return p, fmt.Errorf("probe read via %s: %w", via.url, err)
			}
		}
		body, _ := json.Marshal(map[string]string{"suite": r.suite, "app": r.app, "scheme": r.scheme})
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		id := tr.begin("server.handler", int64(j), -1)
		byURL[owner].srv.Handler().ServeHTTP(rec, req)
		p.handlerUS = append(p.handlerUS, tr.end(id)*1e6)
		if rec.Code != http.StatusOK {
			return p, fmt.Errorf("in-process read %s: status %d", r.key(), rec.Code)
		}
	}
	return p, nil
}

// directSession creates session id on st, advances it in advanceStep steps
// with Session.Advance until it is done or the deadline passes, and removes
// it. It returns the plain and snapshot advance latencies and, once the
// session is done, its last pm_hash.
func directSession(st *experiments.SessionStore, id string, deadline time.Time, tr *tracer) (plainMS, snapMS []float64, pmHash string, err error) {
	sess, err := st.Create(id, experiments.SessionSpec{Suite: sessionSpec.Suite, App: sessionSpec.App,
		Scheme: sessionSpec.Scheme, SnapshotEvery: sessionSpec.SnapshotEvery})
	if err != nil {
		return nil, nil, "", err
	}
	var last experiments.SessionEvent
	for target := uint64(advanceStep); !last.Done && time.Now().Before(deadline); target += advanceStep {
		snap := false
		span := tr.begin("experiments.advance", int64(target), -1)
		start := time.Now()
		err := sess.Advance(context.Background(), target, func(ev experiments.SessionEvent) error {
			switch ev.Type {
			case "snapshot":
				snap = true
			case "advance":
				last = ev
			}
			return nil
		}, nil)
		ms := time.Since(start).Seconds() * 1e3
		tr.end(span)
		if err != nil {
			return nil, nil, "", err
		}
		if snap {
			snapMS = append(snapMS, ms)
		} else {
			plainMS = append(plainMS, ms)
		}
	}
	if last.Done {
		pmHash = last.PMHash
	}
	return plainMS, snapMS, pmHash, st.Remove(id)
}
