// Package experiments reproduces every table and figure of the paper's
// evaluation (§V): one driver per result, all running the same machine with
// different persistence schemes and configuration sweeps, over the
// synthetic application profiles of internal/workload.
//
// The evaluation grid — ~38 application profiles × schemes × configuration
// sweeps — is embarrassingly parallel: every simulation is deterministic
// and shares no state with any other. The Runner exploits that end to end:
// drivers declare their full run set up front with Prefetch, distinct runs
// fan out across a GOMAXPROCS-sized worker pool, concurrent requests for
// the same run share one in-flight simulation, and completed results are
// memoized in memory and (optionally) persisted to an on-disk cache so
// repeated invocations skip finished simulations entirely. Parallelism
// never changes a reproduced number: results are keyed by the canonical
// run key (key.go) and each driver aggregates memoized results in its own
// deterministic order.
//
// Capacity scaling: the paper simulates Table I capacities (16 MB L2, 4 GB
// DRAM cache) against full benchmark footprints. Simulating gigabyte
// footprints is pointless here, so the harness scales the capacity-class
// parameters down by a constant factor (L2 16 MB → 2 MB, DRAM cache 4 GB →
// 512 MB) and sizes the workload footprints to preserve each application's
// residency class (L1-resident / L2-resident / DRAM-cache-resident). All
// latencies, queue depths and bandwidths stay at their Table I values, so
// the persistence behaviour under study is untouched. See EXPERIMENTS.md.
package experiments

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/machine"
	"lightwsp/internal/metrics"
	"lightwsp/internal/obs"
	"lightwsp/internal/probe"
	"lightwsp/internal/workload"
	"lightwsp/internal/wsperr"
)

// MaxRunCycles bounds any single simulation.
const MaxRunCycles = 2_000_000_000

// ScaledConfig returns the Table I configuration with capacities scaled
// down 8× (see the package comment); everything else is Table I verbatim.
func ScaledConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.L2Size = 2 << 20
	cfg.DRAMCacheSize = 512 << 20
	return cfg
}

// Counters snapshots a Runner's cache effectiveness. Fresh+DiskHits is the
// number of distinct simulations the Runner resolved; MemHits counts Run
// calls served without touching disk or the simulator.
type Counters struct {
	// Fresh is the number of simulations actually executed.
	Fresh int
	// DiskHits is the number of distinct runs loaded from the disk cache.
	DiskHits int
	// MemHits is the number of Run calls served from the in-memory memo
	// table or joined onto an already-in-flight simulation.
	MemHits int
	// LeaseJoins is the number of distinct runs resolved by waiting on
	// another node's lease-held simulation and loading its published result
	// — the cross-node singleflight path. Each is also counted in DiskHits
	// (the result arrives through the store).
	LeaseJoins int
}

// Runner executes and memoizes simulation runs. Results are keyed by the
// canonical run key over (profile, scheme, machine config, compiler
// config), so experiments sharing runs — every figure needs the baseline —
// pay for them once.
//
// A Runner is safe for concurrent use. Simulations fan out over a worker
// pool sized by GOMAXPROCS (SetWorkers overrides); two callers requesting
// the same key share a single in-flight simulation. Configure the Runner
// (SetWorkers, SetCacheDir, SetProgress) before the first Run.
//
// A Runner is a light handle over shared state: WithContext returns a new
// handle bound to a request context that shares every cache, counter and
// pool slot with the original — the serving layer hands each request a
// context-scoped view of the one process-wide Runner.
type Runner struct {
	s   *runnerState
	ctx context.Context
}

// runnerState is the memoization state every Runner handle shares.
type runnerState struct {
	mu          sync.Mutex
	cache       map[string]*machine.Stats
	inflight    map[string]*inflightRun
	workerPool  *Pool
	workers     int
	disk        *diskCache
	counters    Counters
	manifests   map[string]RunManifest
	timelineDir string

	progressMu sync.Mutex
	progress   func(string)
}

// inflightRun is one executing simulation plus the callers waiting on it.
// The run executes under its own detached context; cancel fires only when
// the last waiter abandons it, so one impatient client never kills a
// simulation other clients still want.
type inflightRun struct {
	done   chan struct{}
	st     *machine.Stats
	err    error
	cancel context.CancelFunc
	// waiters is guarded by runnerState.mu.
	waiters int
}

// NewRunner returns an empty runner with a GOMAXPROCS-sized worker pool
// and no persistent cache; SetCacheDir or SetStore enables one.
func NewRunner() *Runner {
	return &Runner{
		s: &runnerState{
			cache:     map[string]*machine.Stats{},
			inflight:  map[string]*inflightRun{},
			workers:   runtime.GOMAXPROCS(0),
			manifests: map[string]RunManifest{},
		},
		ctx: context.Background(),
	}
}

// WithContext returns a Runner handle bound to ctx, sharing all memoization
// state, counters and pool capacity with r. Runs started through the handle
// honor ctx at cycle-batch granularity; a run several handles wait on is
// canceled only when every waiter's context has ended.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Runner{s: r.s, ctx: ctx}
}

// SetWorkers sets the worker-pool size (minimum 1). Call before Run.
func (r *Runner) SetWorkers(n int) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	r.s.workers = n
	r.s.workerPool = nil
}

// Pool returns the Runner's worker pool, building it on first use.
func (r *Runner) Pool() *Pool {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return r.s.pool()
}

// SetCacheDir enables the persistent disk cache under dir; an empty dir
// disables it. Call before Run.
func (r *Runner) SetCacheDir(dir string) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if dir == "" {
		r.s.disk = nil
		return
	}
	r.s.disk = newDiskCache(dir)
}

// SetStore points the Runner's persistent result cache at an arbitrary
// Store — typically a TieredStore whose L2 is shared with the rest of a
// fleet. When the store also implements Leaser, fresh simulations go
// through the fleet-wide lease gate (cross-node singleflight): the first
// node to claim a run key simulates, every other node waits and loads the
// leader's published result. A nil store disables the cache. Call before
// Run; overrides SetCacheDir.
func (r *Runner) SetStore(st Store) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if st == nil {
		r.s.disk = nil
		return
	}
	r.s.disk = newDiskCacheStore(st)
}

// SetStorageObserver routes the disk cache's integrity/failure logging and
// counters (quarantines, checksum failures, write errors). Call after
// SetCacheDir/SetStore — enabling or moving the cache resets the observer —
// and before Run.
func (r *Runner) SetStorageObserver(log *slog.Logger, counters *StorageCounters) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if r.s.disk != nil {
		if o, ok := r.s.disk.blobs.(observable); ok {
			o.SetObserver(log, counters)
		}
	}
}

// SetTimelineDir enables per-run Chrome trace-event timelines: every fresh
// simulation writes dir/<hash12>.trace.json (empty disables). Call before
// Run. Timelines are a fresh-simulation artifact — disk-cache hits skip the
// simulation and therefore produce none.
func (r *Runner) SetTimelineDir(dir string) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	r.s.timelineDir = dir
}

// SetProgress installs a progress callback receiving one line per distinct
// resolved run: its identity (suite/app/scheme plus the run-key hash),
// whether it was freshly simulated or loaded from the disk cache, and its
// wall time. Calls are serialized. Pass nil to disable.
func (r *Runner) SetProgress(f func(string)) {
	r.s.progressMu.Lock()
	defer r.s.progressMu.Unlock()
	r.s.progress = f
}

// Counters returns a snapshot of the runner's cache counters.
func (r *Runner) Counters() Counters {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return r.s.counters
}

// Manifests returns one provenance record per distinct resolved run, in a
// deterministic order (suite, app, scheme, key hash).
func (r *Runner) Manifests() []RunManifest {
	r.s.mu.Lock()
	out := make([]RunManifest, 0, len(r.s.manifests))
	for _, m := range r.s.manifests {
		out = append(out, m)
	}
	r.s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Suite != b.Suite {
			return a.Suite < b.Suite
		}
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		return a.KeyHash < b.KeyHash
	})
	return out
}

// ManifestByHash returns the provenance record whose KeyHash matches, if this
// process resolved such a run. The serving layer uses it to enrich run
// lifecycle logs and the /v1/debug/run endpoint.
func (r *Runner) ManifestByHash(hash string) (RunManifest, bool) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	for _, m := range r.s.manifests {
		if m.KeyHash == hash {
			return m, true
		}
	}
	return RunManifest{}, false
}

func (s *runnerState) noteManifest(key string, m RunManifest) {
	s.mu.Lock()
	s.manifests[key] = m
	s.mu.Unlock()
}

// pool returns the worker pool, building it on first use; the caller must
// hold s.mu.
func (s *runnerState) pool() *Pool {
	if s.workerPool == nil {
		s.workerPool = NewPool(s.workers)
	}
	return s.workerPool
}

// Mutator tweaks a configuration before a run (sweep parameter).
type Mutator func(*machine.Config)

// RunSpec names one simulation: the arguments of a Run call. Figure drivers
// build their full run set as RunSpecs and hand it to Prefetch so all
// distinct simulations fan out at once.
type RunSpec struct {
	Profile  workload.Profile
	Scheme   machine.Scheme
	Compiler compiler.Config
	Muts     []Mutator
}

// spec builds a RunSpec (driver shorthand).
func spec(p workload.Profile, sch machine.Scheme, ccfg compiler.Config, muts ...Mutator) RunSpec {
	return RunSpec{Profile: p, Scheme: sch, Compiler: ccfg, Muts: muts}
}

// slowdownSpecs returns the two runs a Slowdown needs: the non-persistent
// baseline and the scheme under test, under the same mutators.
func slowdownSpecs(p workload.Profile, sch machine.Scheme, ccfg compiler.Config, muts ...Mutator) []RunSpec {
	return []RunSpec{
		spec(p, baseline.Baseline(), compiler.Config{}, muts...),
		spec(p, sch, ccfg, muts...),
	}
}

// ResolveConfigs derives the machine and compiler configurations of a run
// of profile p, exactly as Run executes it: the scaled Table I
// configuration with the profile's thread count, then the mutators, then at
// least as many cores as threads; the compiler configuration is resolved
// for the final WPQ (compiler.Config.Resolve: a zero store threshold is
// half the WPQ, §IV-A). It is the one place a profile becomes its
// configurations, so runs outside the Runner (failure injection, streaming
// runs, sessions, crashfuzz campaigns) match the cached grid cycle for
// cycle.
func ResolveConfigs(p workload.Profile, ccfg compiler.Config, muts ...Mutator) (machine.Config, compiler.Config) {
	cfg := ScaledConfig()
	cfg.Threads = p.Threads
	for _, m := range muts {
		m(&cfg)
	}
	if cfg.Threads > cfg.Cores {
		cfg.Cores = cfg.Threads
	}
	return cfg, ccfg.Resolve(cfg.WPQEntries)
}

// BuildRuntime synthesizes profile p's program and binds it to scheme sch
// under configurations from ResolveConfigs: an instrumented scheme compiles
// it, and sink, when non-nil, is attached to every system the runtime
// boots. It is the one place a run's program is built and compiled.
func BuildRuntime(p workload.Profile, sch machine.Scheme, cfg machine.Config, ccfg compiler.Config, sink probe.Sink) (*core.Runtime, error) {
	prog, err := workload.Build(p)
	if err != nil {
		return nil, err
	}
	rt, err := core.NewRuntimeFor(prog, ccfg, cfg, sch, sink)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", p.Suite, p.Name, err)
	}
	return rt, nil
}

// Prefetch resolves every spec's run key, deduplicates, and executes all
// distinct runs concurrently on the worker pool, returning the first error.
// After a successful Prefetch, the driver's subsequent Run calls are
// in-memory cache hits, so its aggregation order — and therefore every
// reproduced number — is identical to a sequential execution.
func (r *Runner) Prefetch(specs []RunSpec) error {
	seen := map[string]bool{}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for _, s := range specs {
		cfg, ccfg := ResolveConfigs(s.Profile, s.Compiler, s.Muts...)
		key := runKey(s.Profile, s.Scheme, cfg, ccfg)
		if seen[key] {
			continue
		}
		seen[key] = true
		wg.Add(1)
		s := s
		go func() {
			defer wg.Done()
			if _, err := r.Run(s.Profile, s.Scheme, s.Compiler, s.Muts...); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Run executes profile p under scheme sch with the scaled configuration,
// optionally mutated, and returns the run's statistics. Instrumented
// schemes compile the program first; ccfg.StoreThreshold zero means half
// the WPQ size (§IV-A). The returned Stats are shared and must be treated
// as read-only.
//
// Run honors the handle's context (WithContext): while waiting — for a pool
// slot, or on another caller's in-flight simulation of the same key — a
// context end returns an error wrapping wsperr.ErrCanceled immediately; the
// simulation itself is canceled at cycle-batch granularity once no caller is
// waiting on it. Canceled runs are never cached.
func (r *Runner) Run(p workload.Profile, sch machine.Scheme, ccfg compiler.Config, muts ...Mutator) (*machine.Stats, error) {
	cfg, ccfg := ResolveConfigs(p, ccfg, muts...)
	key := runKey(p, sch, cfg, ccfg)
	s := r.s

	s.mu.Lock()
	if st, ok := s.cache[key]; ok {
		s.counters.MemHits++
		s.mu.Unlock()
		return st, nil
	}
	fl, joined := s.inflight[key]
	if joined {
		s.counters.MemHits++
		fl.waiters++
		s.mu.Unlock()
	} else {
		// First caller for this key: start the run under its own detached
		// context so it outlives any single waiter, then wait like everyone
		// else. cancel fires when the last waiter gives up. The detachment
		// drops the caller's context values, so the telemetry identity —
		// trace ID, flight recorder — is carried across explicitly; that is
		// how a served run's manifest, timeline and flight dump all end up
		// tagged with the first requester's X-LightWSP-Trace ID.
		execCtx, cancel := context.WithCancel(obs.CarryTelemetry(context.Background(), r.ctx))
		fl = &inflightRun{done: make(chan struct{}), cancel: cancel, waiters: 1}
		s.inflight[key] = fl
		pool := s.pool()
		s.mu.Unlock()
		go s.runInflight(execCtx, pool, fl, key, p, sch, cfg, ccfg)
	}

	select {
	case <-fl.done:
		return fl.st, fl.err
	case <-r.ctx.Done():
		s.mu.Lock()
		fl.waiters--
		abandoned := fl.waiters == 0
		s.mu.Unlock()
		if abandoned {
			fl.cancel()
		}
		return nil, fmt.Errorf("experiments: %s/%s under %s: %w: %v",
			p.Suite, p.Name, sch.Name, wsperr.ErrCanceled, r.ctx.Err())
	}
}

// runInflight resolves one distinct run on the worker pool and publishes the
// outcome to every waiter.
func (s *runnerState) runInflight(ctx context.Context, pool *Pool, fl *inflightRun, key string, p workload.Profile, sch machine.Scheme, cfg machine.Config, ccfg compiler.Config) {
	var st *machine.Stats
	var fromDisk bool
	err := pool.DoCtx(ctx, func() {
		st, fromDisk, fl.err = s.execute(ctx, key, p, sch, cfg, ccfg)
	})
	if err != nil {
		fl.err = err // canceled while waiting for a worker slot
	}
	s.mu.Lock()
	delete(s.inflight, key)
	if fl.err == nil {
		s.cache[key] = st
		if fromDisk {
			s.counters.DiskHits++
		} else {
			s.counters.Fresh++
		}
	}
	s.mu.Unlock()
	fl.st = st
	close(fl.done)
	fl.cancel()
}

// execute resolves one distinct run: disk-cache load if enabled, else a
// full simulation (persisted to the disk cache afterwards) behind the
// fleet-wide lease gate when the store arbitrates leases. Either way it
// records a RunManifest carrying the run's provenance and metrics.
func (s *runnerState) execute(ctx context.Context, key string, p workload.Profile, sch machine.Scheme, cfg machine.Config, ccfg compiler.Config) (*machine.Stats, bool, error) {
	hash := keyHash(key)
	start := time.Now()
	if s.disk != nil {
		if st, man, ok := s.disk.load(key, hash); ok {
			man.Source = "cached"
			man.WallSeconds = time.Since(start).Seconds()
			man.TraceID = obs.TraceID(ctx)
			s.noteManifest(key, man)
			s.progressLine(p, sch, hash, "cached", time.Since(start), st)
			return st, true, nil
		}
		// Cross-node singleflight: when the store can arbitrate leases,
		// exactly one node in the fleet simulates this key; everyone else
		// waits for the leader's published result.
		if ls, ok := s.disk.leaser(); ok {
			st, man, joined, release, err := s.leaseGate(ctx, ls, key, hash)
			if err != nil {
				return nil, false, err
			}
			if joined {
				man.Source = "fleet"
				man.WallSeconds = time.Since(start).Seconds()
				man.TraceID = obs.TraceID(ctx)
				s.noteManifest(key, man)
				s.progressLine(p, sch, hash, "fleet", time.Since(start), st)
				s.mu.Lock()
				s.counters.LeaseJoins++
				s.mu.Unlock()
				return st, true, nil
			}
			defer release()
		}
	}
	st, snap, err := simulate(ctx, p, sch, cfg, ccfg, s.timelinePath(hash))
	if err != nil {
		return nil, false, err
	}
	man := RunManifest{
		SchemaVersion: RunCodec.Version,
		KeyHash:       hash,
		Suite:         string(p.Suite),
		App:           p.Name,
		Scheme:        sch.Name,
		Source:        "fresh",
		WallSeconds:   time.Since(start).Seconds(),
		Cycles:        st.Cycles,
		GitDescribe:   gitDescribe(),
		TraceID:       obs.TraceID(ctx),
		Metrics:       snap,
	}
	if s.disk != nil {
		s.disk.store(key, hash, st, man)
	}
	s.noteManifest(key, man)
	s.progressLine(p, sch, hash, "fresh", time.Since(start), st)
	return st, false, nil
}

// Lease-gate tuning: a run lease is renewed at a third of its TTL while the
// leader simulates, so followers only break it when the leader actually
// died. The failsafe bounds how long a follower trusts a lease it can
// neither take nor observe results from (a broken shared store) before
// simulating redundantly — fail open, never deadlock.
var (
	runLeaseTTL       = 30 * time.Second
	leasePollInterval = 20 * time.Millisecond
	leaseFailsafe     = 3 * runLeaseTTL
)

// leaseOwner returns a random identity for one lease claim.
func leaseOwner() string {
	var b [8]byte
	crand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// leaseGate is the cross-node singleflight. It returns either
// joined=true with another node's result loaded from the shared store, or
// joined=false with the lease held — the caller simulates, publishes, and
// must call release. The lease is renewed in the background until release.
// A context end while waiting surfaces as an error wrapping
// wsperr.ErrCanceled, like every other wait in Run.
func (s *runnerState) leaseGate(ctx context.Context, ls Leaser, key, hash string) (*machine.Stats, RunManifest, bool, func(), error) {
	name := "run-" + hash
	owner := leaseOwner()
	deadline := time.Now().Add(leaseFailsafe)
	for !ls.Claim(name, owner, runLeaseTTL) {
		// Follower: the leader holds the lease. Poll for its published
		// result; Claim above breaks expired leases, so a dead leader
		// promotes the first poller to leadership.
		select {
		case <-ctx.Done():
			return nil, RunManifest{}, false, nil, fmt.Errorf("experiments: waiting on fleet leader for %s: %w: %v",
				hash[:12], wsperr.ErrCanceled, ctx.Err())
		case <-time.After(leasePollInterval):
		}
		if st, man, ok := s.disk.load(key, hash); ok {
			return st, man, true, nil, nil
		}
		if time.Now().After(deadline) {
			// The arbiter is unreachable or wedged: simulate without the
			// lease rather than wait forever. Duplicate work, never a stall.
			return nil, RunManifest{}, false, func() {}, nil
		}
	}
	// Won the claim. Re-check the store first: a leader that finished and
	// released between our load miss and this claim already published the
	// result, and re-simulating it would defeat the whole gate.
	if st, man, ok := s.disk.load(key, hash); ok {
		ls.Release(name, owner)
		return st, man, true, nil, nil
	}
	// Leader: hold the lease for the duration of the simulation.
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(runLeaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if !ls.Renew(name, owner, runLeaseTTL) {
					return // lease lost; worst case a follower duplicates the work
				}
			}
		}
	}()
	release := func() {
		close(stop)
		ls.Release(name, owner)
	}
	return nil, RunManifest{}, false, release, nil
}

// timelinePath returns where a fresh run's Chrome trace goes, or "".
func (s *runnerState) timelinePath(hash string) string {
	if s.timelineDir == "" {
		return ""
	}
	return filepath.Join(s.timelineDir, hash[:12]+".trace.json")
}

func (s *runnerState) progressLine(p workload.Profile, sch machine.Scheme, hash, src string, d time.Duration, st *machine.Stats) {
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	if s.progress == nil {
		return
	}
	s.progress(fmt.Sprintf("%-6s %-8s %-12s %-12s %8.2fs %12d cycles  %s",
		src, p.Suite, p.Name, sch.Name, d.Seconds(), st.Cycles, hash[:12]))
}

// simulate performs one simulation with fully resolved configurations. A
// metrics sink rides along on every run (its snapshot feeds the manifest);
// a non-empty timelinePath additionally buffers the full event stream and
// writes it as Chrome trace-event JSON. Cancellation is honored at
// cycle-batch granularity; run failures wrap the wsperr sentinels.
func simulate(ctx context.Context, p workload.Profile, sch machine.Scheme, cfg machine.Config, ccfg compiler.Config, timelinePath string) (*machine.Stats, metrics.Snapshot, error) {
	m := metrics.New()
	// The sink stack: the per-run metrics accumulator always rides along;
	// a request-scoped flight recorder (obs.WithRecorder) and a timeline
	// buffer join it when asked for. probe.Multi collapses the common
	// metrics-only case back to a single direct sink.
	sinks := []probe.Sink{m}
	if rec := obs.Recorder(ctx); rec != nil {
		sinks = append(sinks, rec)
	}
	var tl *probe.Timeline
	if timelinePath != "" {
		tl = probe.NewTimeline(0)
		tl.TraceID = obs.TraceID(ctx)
		sinks = append(sinks, tl)
	}
	rt, err := BuildRuntime(p, sch, cfg, ccfg, probe.Multi(sinks...))
	if err != nil {
		return nil, metrics.Snapshot{}, err
	}
	sys, err := rt.Run(ctx, MaxRunCycles)
	if err != nil {
		return nil, metrics.Snapshot{}, fmt.Errorf("%s/%s under %s: %w", p.Suite, p.Name, sch.Name, err)
	}
	if tl != nil {
		if err := os.MkdirAll(filepath.Dir(timelinePath), 0o755); err != nil {
			return nil, metrics.Snapshot{}, err
		}
		if err := tl.WriteFile(timelinePath); err != nil {
			return nil, metrics.Snapshot{}, err
		}
	}
	st := sys.Stats
	return &st, m.Snapshot(), nil
}

// Slowdown returns cycles(sch)/cycles(baseline) for one profile.
func (r *Runner) Slowdown(p workload.Profile, sch machine.Scheme, ccfg compiler.Config, muts ...Mutator) (float64, error) {
	base, err := r.Run(p, baseline.Baseline(), compiler.Config{}, muts...)
	if err != nil {
		return 0, err
	}
	st, err := r.Run(p, sch, ccfg, muts...)
	if err != nil {
		return 0, err
	}
	return float64(st.Cycles) / float64(base.Cycles), nil
}

// LightWSP returns the LightWSP scheme (re-exported for harness brevity).
func LightWSP() machine.Scheme { return core.Scheme() }

// CXLPreset is one row of Table III: a CXL-attached memory device replacing
// the iMC-attached PM.
type CXLPreset struct {
	Name string
	// ReadLat and WriteLat are device latencies in cycles (2 GHz).
	ReadLat, WriteLat uint64
	// WriteInterval is the cycles per 8-byte persist write, derived from
	// the device's write bandwidth.
	WriteInterval uint64
}

// CXLPresets returns the four configurations of Table III. Latencies are
// the paper's numbers converted at 2 GHz; write intervals derive from each
// device's bandwidth (CXL-PMEM: Optane's 2.3 GB/s write path).
func CXLPresets() []CXLPreset {
	return []CXLPreset{
		{Name: "CXL-I", ReadLat: 316, WriteLat: 240, WriteInterval: 1},    // DDR5-4800, 38.4 GB/s
		{Name: "CXL-II", ReadLat: 446, WriteLat: 278, WriteInterval: 2},   // DDR4-2400, 19.2 GB/s
		{Name: "CXL-III", ReadLat: 696, WriteLat: 482, WriteInterval: 2},  // DDR4-3200 soft IP, 25.6 GB/s
		{Name: "CXL-PMem", ReadLat: 490, WriteLat: 320, WriteInterval: 7}, // Optane behind CXL
	}
}

// Apply returns a Mutator installing the preset.
func (c CXLPreset) Apply() Mutator {
	return func(cfg *machine.Config) {
		cfg.PMReadLat = c.ReadLat
		cfg.PMWriteLat = c.WriteLat
		cfg.PMWriteInterval = c.WriteInterval
	}
}
