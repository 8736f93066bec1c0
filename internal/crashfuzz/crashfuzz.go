// Package crashfuzz is the crash-consistency fuzzing harness: it validates
// LightWSP's central claim — all-or-nothing region persistence under
// arbitrary power failure (§IV-F) — by making *every* cycle of a workload a
// candidate failure point instead of the handful of hand-picked cycles unit
// tests cover.
//
// A campaign runs the workload once crash-free to produce an oracle (final
// persisted image + cycle count), then replays it injecting PowerFail at
// enumerated cycles: exhaustively below a threshold, by seeded-random
// sampling above it, always seeded with the "interesting" cycles the oracle
// run's probe stream surfaced (boundary broadcasts, WPQ flushes, overflow-
// escape transitions, undo-log writes, FEB back-pressure bursts). Each
// injection drains, recovers, resumes to completion, and diffs the final
// persisted state against the oracle — any divergence is a found bug.
// Multi-cut schedules chain N successive power failures, including cuts at
// cycle 0 of a recovered machine: a failure during recovery itself.
//
// Schedules share their first segment. Every first segment is a prefix of
// the same deterministic run, so instead of replaying each prefix from
// cycle 0 the campaign walks it once: the campaign goroutine steps one
// walker machine through the first cuts in ascending order and at each
// takes the crash image with machine.System.CrashImage — the §IV-F drain
// run on a copy of the battery-backed state while the walker keeps
// running. Each image goes over an unbuffered channel to a worker, which
// recovers from it, applies the schedule's later cuts, runs to completion
// and takes the verdict exactly as Replay would. A campaign's prefix cost
// thus falls from the sum of its first-cut cycles to at most one run of the
// program. Replay — a from-cycle-0 prefix followed by the same tail —
// remains the path for shrinking and for repro files.
//
// Schedules also share their tails. LightWSP persists regions
// all-or-nothing and in flush-ID order, so a run's crash images are its
// persisted-region prefixes, far fewer than its cycles, and many first cuts
// leave the same one. A tail is a function of the crash image, the region
// counter recovery seeds fresh IDs above, and the later cuts: recovery reads
// nothing else of the failed machine, every recovered segment gets a fresh
// injector of the campaign's fault plan, and the runtime and the cycle bound
// are campaign-wide. So the walker keys each image by (hash, region counter,
// later cuts), hands only the first schedule of a key to a worker, and once
// the workers have drained gives every later schedule of that key the first
// one's outcome. Sharing is off while CorruptPM is set, as the verdict cache
// is: a corrupting hook need not treat equal images alike.
//
// Failing schedules are shrunk (shrink.go) to a minimal reproducer and
// serialized as self-contained JSON repro files (repro.go) that
// `lightwsp-crashfuzz -replay` re-executes deterministically.
//
// Campaigns reuse the experiments infrastructure: the workers run in the
// slots of an experiments.Pool (the walker stays outside it, so a one-slot
// pool cannot deadlock), and passing verdicts are memoized in an
// experiments.BlobCache keyed by the canonical run key + schedule, so a
// repeated or resumed campaign skips every injection it has already proven.
package crashfuzz

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/faults"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
	"lightwsp/internal/recovery"
	"lightwsp/internal/stats"
	"lightwsp/internal/workload"
	"lightwsp/internal/wsperr"
)

// maxReplayCycles bounds any single replay segment chain.
const maxReplayCycles = experiments.MaxRunCycles

// Defaults for zero-valued Config knobs.
const (
	// DefaultExhaustiveThreshold: oracles at most this many cycles long are
	// fuzzed at every cycle; longer ones are sampled.
	DefaultExhaustiveThreshold = 4096
	// DefaultMaxInjections is the sampled-mode random-cycle budget.
	DefaultMaxInjections = 256
	// DefaultMaxInteresting caps probe-guided injection cycles.
	DefaultMaxInteresting = 64
	// DefaultShrinkBudget caps replays spent minimizing one divergence.
	DefaultShrinkBudget = 64
)

// Config describes one fuzzing campaign.
type Config struct {
	// Profile is the workload under test (any workload.Profile, including
	// the miniature workload.FuzzSmokeProfiles set).
	Profile workload.Profile
	// Machine is the simulated hardware; a zero value means the scaled
	// Table I configuration (experiments.ScaledConfig). It goes through
	// experiments.ResolveConfigs as a mutator that replaces the scaled
	// configuration but keeps the profile's thread count, and the cores
	// are then raised to cover the threads.
	Machine machine.Config
	// Compiler configures region formation. It goes through
	// experiments.ResolveConfigs, exactly as the experiments Runner's
	// configuration does: a zero StoreThreshold resolves to half the WPQ
	// size (§IV-A).
	Compiler compiler.Config

	// ExhaustiveThreshold, MaxInjections and MaxInteresting tune the
	// schedule planner (zero = package defaults).
	ExhaustiveThreshold uint64
	MaxInjections       int
	MaxInteresting      int
	// Cuts is the number of successive power failures per schedule
	// (minimum 1). With Cuts > 1, every fourth schedule cuts again at
	// cycle 0 of the recovered machine — a failure during recovery itself.
	Cuts int
	// Seed drives sampled-mode cycle selection and multi-cut offsets; the
	// same seed always plans the same campaign.
	Seed int64
	// Faults, when enabled, injects persist-fabric faults (drop/dup/delay/
	// reorder, stuck controllers) into every replay segment — the fault plan
	// × power-cut product. The oracle run stays fault-free: reliable
	// delivery must make faulted outcomes indistinguishable from it.
	Faults faults.Plan
	// MaxCycles bounds each replay (zero = experiments.MaxRunCycles).
	MaxCycles uint64

	// Workers sizes the injection worker pool (zero = GOMAXPROCS); Pool,
	// when non-nil, overrides it with a shared pool.
	Workers int
	Pool    *experiments.Pool
	// Cache, when non-nil, memoizes passing verdicts so repeated campaigns
	// skip proven injections. Ignored while CorruptPM is set.
	Cache experiments.Store
	// OutDir, when non-empty, receives one JSON repro file per divergence
	// plus a manifest.json campaign summary.
	OutDir string

	// CorruptPM, when set, mutates the crash image after every drain and
	// before recovery — an intentionally broken recovery used by the
	// harness's own tests to prove divergences are caught and shrunk.
	CorruptPM func(pm *mem.Image)
	// Progress, if non-nil, receives occasional human-readable progress
	// lines. Calls are serialized.
	Progress func(string)
}

// Result is one campaign's manifest.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Suite         string `json:"suite"`
	App           string `json:"app"`
	Scheme        string `json:"scheme"`
	// KeyHash is the canonical run-key hash of the underlying simulation.
	KeyHash string `json:"key_hash"`
	// Mode is "exhaustive" (every cycle) or "sampled".
	Mode string `json:"mode"`
	Cuts int    `json:"cuts"`
	Seed int64  `json:"seed"`
	// Faults is the campaign's fault plan in -faults flag syntax ("none"
	// when the campaign ran on a perfect fabric).
	Faults string `json:"faults,omitempty"`
	// OracleCycles and OracleHash identify the failure-free reference run.
	OracleCycles uint64 `json:"oracle_cycles"`
	OracleHash   string `json:"oracle_hash"`
	// CyclesCovered is the number of distinct first-cut cycles injected.
	CyclesCovered int `json:"cycles_covered"`
	// InterestingCycles counts probe-guided injection points.
	InterestingCycles int `json:"interesting_cycles"`
	// Injections counts power cuts fired across all schedules and shrink
	// replays, a sharer's being its representative's cut for cut; CacheHits
	// counts schedules skipped via memoized passing verdicts; SharedTails
	// counts schedules that took the outcome of an earlier schedule with the
	// same crash state instead of running their own recovery tail.
	Injections  int `json:"injections"`
	CacheHits   int `json:"cache_hits"`
	SharedTails int `json:"shared_tails"`
	// Divergences counts schedules whose final state differed from the
	// oracle; Repros holds their shrunk reproducers, one per recovery tail
	// that diverged, which every schedule sharing that tail carries.
	Divergences int      `json:"divergences"`
	Repros      []Repro  `json:"repros,omitempty"`
	ReproPaths  []string `json:"repro_paths,omitempty"`
	// ShrinkReplays counts the extra replays spent minimizing divergences.
	ShrinkReplays    int     `json:"shrink_replays"`
	Workers          int     `json:"workers"`
	WallSeconds      float64 `json:"wall_seconds"`
	InjectionsPerSec float64 `json:"injections_per_sec"`
}

// String renders the campaign summary as a table.
func (r *Result) String() string {
	t := &stats.Table{
		Title:   fmt.Sprintf("crashfuzz %s/%s (%s)", r.Suite, r.App, r.Scheme),
		Columns: []string{"metric", "value"},
	}
	t.Add("mode", fmt.Sprintf("%s, %d cut(s), seed %d", r.Mode, r.Cuts, r.Seed))
	if r.Faults != "" && r.Faults != "none" {
		t.Add("faults", r.Faults)
	}
	t.Add("oracle", fmt.Sprintf("%d cycles, hash %s", r.OracleCycles, r.OracleHash))
	t.Add("cycles covered", r.CyclesCovered)
	t.Add("probe-guided cycles", r.InterestingCycles)
	t.Add("injections fired", r.Injections)
	t.Add("cached verdicts", r.CacheHits)
	t.Add("shared tails", r.SharedTails)
	t.Add("divergences", r.Divergences)
	t.Add("injections/sec", fmt.Sprintf("%.0f", r.InjectionsPerSec))
	return t.String()
}

// campaign carries the resolved state one Run shares across the walker and
// the workers.
type campaign struct {
	cfg         Config
	rt          *core.Runtime
	mcfg        machine.Config
	orc         *oracle
	key         string
	keyHash     string
	maxCycles   uint64
	scheds      []Schedule
	mode        string
	interesting int
	pool        *experiments.Pool
	// brokenKey, test-only, drops the later cuts from the tail key, so
	// schedules that differ only after their first cut share a tail.
	brokenKey bool

	mu       sync.Mutex
	done     int
	diverged int
}

// verdictEntry is the cached record of one schedule proven non-diverging
// (the experiments.VerdictCodec envelope payload).
type verdictEntry struct {
	Fired int `json:"fired"`
}

// Run executes one campaign and returns its manifest. Campaign errors
// (workload build failures, replays exceeding MaxCycles, unwritable OutDir)
// are returned as errors; divergences are results, not errors.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx ends, the oracle run and
// the walk stop at their next cycle batch, no further schedules are
// dispatched, in-flight replays run to completion (individual replays are
// short), and the campaign returns an error wrapping wsperr.ErrCanceled
// instead of a partial manifest.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	start := time.Now()
	c, err := newCampaign(ctx, cfg)
	if err != nil {
		return nil, err
	}
	outcomes, err := c.walk(ctx)
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("crashfuzz: campaign %s/%s: %w: %v", cfg.Profile.Suite, cfg.Profile.Name, wsperr.ErrCanceled, cerr)
	}
	if err != nil {
		return nil, err
	}
	return c.result(outcomes, start)
}

// SmokeResults is a batch of campaign manifests, rendered one after another.
type SmokeResults []*Result

func (rs SmokeResults) String() string {
	s := ""
	for i, r := range rs {
		if i > 0 {
			s += "\n"
		}
		s += r.String()
	}
	return s
}

// Smoke runs the crash-consistency smoke set: one- and two-cut campaigns
// with seed 1 over each workload.FuzzSmokeProfiles profile, every one short
// enough to be fuzzed at every cycle. base supplies the rest of each
// campaign's Config (fault plan, pool, verdict cache, cycle bound); its
// Profile, Cuts and Seed are overridden. Any divergence is an error: the
// smoke set's job is to prove there are none.
func Smoke(ctx context.Context, base Config) (SmokeResults, error) {
	var out SmokeResults
	for _, p := range workload.FuzzSmokeProfiles() {
		for cuts := 1; cuts <= 2; cuts++ {
			cfg := base
			cfg.Profile, cfg.Cuts, cfg.Seed = p, cuts, 1
			res, err := RunContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			if res.Divergences > 0 {
				return nil, fmt.Errorf("crashfuzz: %s/%s (%d cuts): %d divergence(s)",
					p.Suite, p.Name, cuts, res.Divergences)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// newCampaign resolves the configuration, compiles the workload, runs the
// oracle and plans the schedules.
func newCampaign(ctx context.Context, cfg Config) (*campaign, error) {
	p := cfg.Profile
	var muts []experiments.Mutator
	if cfg.Machine.Cores != 0 {
		muts = append(muts, func(m *machine.Config) {
			threads := m.Threads
			*m = cfg.Machine
			m.Threads = threads
		})
	}
	mcfg, ccfg := experiments.ResolveConfigs(p, cfg.Compiler, muts...)
	rt, err := experiments.BuildRuntime(p, core.Scheme(), mcfg, ccfg, nil)
	if err != nil {
		return nil, err
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = maxReplayCycles
	}
	maxInteresting := cfg.MaxInteresting
	if maxInteresting == 0 {
		maxInteresting = DefaultMaxInteresting
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("crashfuzz: %w: %v", wsperr.ErrCanceled, err)
	}
	orc, interesting, err := buildOracle(ctx, rt, maxCycles, maxInteresting)
	if err != nil {
		return nil, err
	}
	key, keyHash := experiments.CanonicalRunKey(p, rt.Sch, mcfg, ccfg)
	scheds, mode := plan(cfg, orc.cycles, interesting)

	pool := cfg.Pool
	if pool == nil {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		pool = experiments.NewPool(workers)
	}
	return &campaign{
		cfg: cfg, rt: rt, mcfg: mcfg, orc: orc, key: key, keyHash: keyHash,
		maxCycles: maxCycles, scheds: scheds, mode: mode,
		interesting: len(interesting), pool: pool,
	}, nil
}

// handoff is one schedule's start, passed from the walker to a worker: the
// crash image and drain report of its first cut, or — when the walker
// finished before that cut — the finished walker, and the schedule fires
// nothing.
type handoff struct {
	i        int
	pm       *mem.Image
	rep      machine.FailureReport
	finished *machine.System
}

// tailKey identifies a schedule's recovery tail: the hash of its first
// cut's crash image, the region counter recovery seeds fresh IDs above, and
// the later cuts. Everything else a tail reads is campaign-wide.
type tailKey struct {
	image, regions uint64
	later          string
}

// sharer is a schedule whose tail is that of the earlier schedule rep.
type sharer struct{ i, rep int }

// walk resolves every schedule. The walker steps one machine through the
// first cuts and hands each crash image over an unbuffered channel, so at
// most one image waits; one worker per pool slot takes it, recovers,
// applies the later cuts, runs to completion and takes the verdict exactly
// as a Replay would. Once every worker has drained the channel, each sharer
// takes its representative's outcome.
func (c *campaign) walk(ctx context.Context) ([]outcome, error) {
	outcomes := make([]outcome, len(c.scheds))
	work := make(chan handoff)
	var wg sync.WaitGroup
	for w := 0; w < c.pool.Size(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range work {
				if err := c.pool.DoCtx(ctx, func() { outcomes[h.i] = c.resolve(h) }); err != nil {
					outcomes[h.i] = outcome{err: err}
				}
			}
		}()
	}
	sharers, err := c.step(ctx, outcomes, work)
	close(work)
	wg.Wait()
	for _, sh := range sharers {
		outcomes[sh.i] = c.share(c.scheds[sh.i], outcomes[sh.rep])
	}
	return outcomes, err
}

// step is the walker. It runs on the campaign goroutine, outside the pool,
// so it never competes with its own workers for a slot, and it visits the
// schedules in plan order — ascending first cuts — stepping its machine
// from one first cut to the next and taking each crash image without
// cutting power. Cached verdicts are recorded without an image. A schedule
// whose tail key an earlier one already holds is not handed over but
// returned as that one's sharer. The machine is dropped when step returns,
// after the last first cut.
func (c *campaign) step(ctx context.Context, outcomes []outcome, work chan<- handoff) ([]sharer, error) {
	var sys *machine.System
	var sharers []sharer
	reps := map[tailKey]int{}
	finished := false
	for i, sched := range c.scheds {
		if o, ok := c.cached(sched); ok {
			outcomes[i] = o
			c.tick()
			continue
		}
		if sys == nil {
			var err error
			if sys, err = c.rt.NewSystem(); err != nil {
				return nil, err
			}
			sys.SetFaultInjector(faults.New(c.cfg.Faults))
		}
		h := handoff{i: i}
		if !finished {
			if sched[0] < sys.Cycle() {
				return nil, fmt.Errorf("crashfuzz: schedule %v planned after a cut at cycle %d", sched, sys.Cycle())
			}
			var err error
			if finished, err = sys.RunUntilContext(ctx, sched[0]); err != nil {
				return nil, err
			}
		}
		if finished {
			h.finished = sys
		} else {
			h.pm, h.rep = sys.CrashImage()
			if c.cfg.CorruptPM == nil { // a corrupting hook need not treat equal images alike
				k := tailKey{h.pm.Hash(), h.rep.RegionCounter, sched[1:].String()}
				if c.brokenKey {
					k.later = ""
				}
				if rep, ok := reps[k]; ok {
					sharers = append(sharers, sharer{i, rep})
					continue
				}
				reps[k] = i
			}
		}
		select {
		case work <- h:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return sharers, nil
}

// result assembles the campaign manifest from the schedules' outcomes and
// writes the artifacts.
func (c *campaign) result(outcomes []outcome, start time.Time) (*Result, error) {
	p := c.cfg.Profile
	res := &Result{
		SchemaVersion:     ReproSchemaVersion,
		Suite:             string(p.Suite),
		App:               p.Name,
		Scheme:            c.rt.Sch.Name,
		KeyHash:           c.keyHash,
		Mode:              c.mode,
		Cuts:              maxInt(c.cfg.Cuts, 1),
		Seed:              c.cfg.Seed,
		OracleCycles:      c.orc.cycles,
		OracleHash:        c.orc.hash,
		Faults:            c.cfg.Faults.String(),
		CyclesCovered:     len(c.scheds),
		InterestingCycles: c.interesting,
		Workers:           c.pool.Size(),
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return nil, fmt.Errorf("crashfuzz: schedule %v: %w", c.scheds[i], o.err)
		}
		res.Injections += o.fired + o.shrinkCuts
		res.ShrinkReplays += o.shrinkReplays
		if o.cached {
			res.CacheHits++
		}
		if o.shared {
			res.SharedTails++
		}
		if o.repro != nil {
			res.Divergences++
			if !o.shared { // a sharer carries its representative's repro
				o.repro.Seed = c.cfg.Seed
				o.repro.KeyHash = c.keyHash
				res.Repros = append(res.Repros, *o.repro)
			}
		}
	}
	res.WallSeconds = time.Since(start).Seconds()
	if res.WallSeconds > 0 {
		res.InjectionsPerSec = float64(res.Injections) / res.WallSeconds
	}
	if err := writeArtifacts(c.cfg.OutDir, res); err != nil {
		return nil, err
	}
	c.progress(fmt.Sprintf("crashfuzz %s/%s: %s over %d schedules, %d injections (%d cached, %d shared), %d divergences, %.1fs",
		p.Suite, p.Name, c.mode, len(c.scheds), res.Injections, res.CacheHits, res.SharedTails, res.Divergences, res.WallSeconds))
	return res, nil
}

// outcome is one schedule's resolution. fired counts the cuts of its tail,
// for a sharer its representative's; shrinkCuts and shrinkReplays count the
// cuts and replays spent shrinking its divergence.
type outcome struct {
	cached, shared bool
	fired          int
	shrinkCuts     int
	shrinkReplays  int
	repro          *Repro
	err            error
}

// resolve runs one handed-off schedule to its verdict.
func (c *campaign) resolve(h handoff) outcome {
	defer c.tick()
	rep, err := c.tail(h)
	if err != nil {
		return outcome{err: err}
	}
	return c.judge(c.scheds[h.i], rep)
}

// tail runs a handed-off schedule to completion: recover from the first
// cut's crash image, apply the later cuts and run on — or take the finished
// walker as is.
func (c *campaign) tail(h handoff) (*ReplayResult, error) {
	if h.finished != nil {
		return &ReplayResult{Sys: h.finished}, nil
	}
	return resume(c.rt, c.scheds[h.i], h.pm, h.rep, c.maxCycles, c.cfg.CorruptPM, c.cfg.Faults)
}

// useCache reports whether verdicts are memoized: a corrupting recovery's
// verdicts would poison the cache.
func (c *campaign) useCache() bool {
	return c.cfg.Cache != nil && c.cfg.CorruptPM == nil
}

// cached returns the memoized passing verdict of sched, if any.
func (c *campaign) cached(sched Schedule) (outcome, bool) {
	if !c.useCache() {
		return outcome{}, false
	}
	vkey, vhash := c.verdictKey(sched)
	var e verdictEntry
	if !experiments.VerdictCodec.Load(c.cfg.Cache, vhash, vkey, &e) {
		return outcome{}, false
	}
	return outcome{cached: true, fired: e.Fired}, true
}

// judge takes one replayed schedule's verdict: a pass is memoized, a
// divergence is shrunk.
func (c *campaign) judge(sched Schedule, rep *ReplayResult) outcome {
	if verr := recovery.Verdict(rep.Sys, c.orc.pm, c.mcfg.Threads); verr != nil {
		return c.diverge(sched, rep, verr)
	}
	c.store(sched, rep.Fired)
	return outcome{fired: rep.Fired}
}

// share resolves a sharer from its representative's outcome o: the same
// error, or the same verdict, a pass memoized under the sharer's own key or
// a divergence carrying the representative's shrunk reproducer. The shrink
// replays ran once, for the representative, and count there alone.
func (c *campaign) share(sched Schedule, o outcome) outcome {
	defer c.tick()
	if o.err != nil {
		return outcome{err: o.err}
	}
	if o.repro != nil {
		c.mu.Lock()
		c.diverged++
		c.mu.Unlock()
	} else {
		c.store(sched, o.fired)
	}
	return outcome{shared: true, fired: o.fired, repro: o.repro}
}

// store memoizes sched's passing verdict, when verdicts are memoized.
func (c *campaign) store(sched Schedule, fired int) {
	if c.useCache() {
		vkey, vhash := c.verdictKey(sched)
		experiments.VerdictCodec.Store(c.cfg.Cache, vhash, vkey, verdictEntry{Fired: fired})
	}
}

// diverge shrinks a failing schedule — first the cut cycles, then the fault
// plan's knobs — and packages the minimal reproducer.
func (c *campaign) diverge(sched Schedule, rep *ReplayResult, verr error) outcome {
	shrinkCuts, probes := 0, 0
	failsWith := func(s Schedule, plan faults.Plan) bool {
		r, err := Replay(c.rt, s, c.maxCycles, c.cfg.CorruptPM, plan)
		if err != nil {
			return false // a broken replay is not a reproduction
		}
		shrinkCuts += r.Fired
		return recovery.Verdict(r.Sys, c.orc.pm, c.mcfg.Threads) != nil
	}
	minimal, n := Shrink(sched, func(s Schedule) bool {
		return failsWith(s, c.cfg.Faults)
	}, DefaultShrinkBudget)
	probes += n
	plan, n := ShrinkPlan(c.cfg.Faults, func(p faults.Plan) bool {
		return failsWith(minimal, p)
	}, DefaultShrinkBudget)
	probes += n
	// Re-derive the minimal reproducer's diff for the repro file.
	diff := verr
	if mrep, err := Replay(c.rt, minimal, c.maxCycles, c.cfg.CorruptPM, plan); err == nil {
		if merr := recovery.Verdict(mrep.Sys, c.orc.pm, c.mcfg.Threads); merr != nil {
			diff = merr
		}
	}
	c.mu.Lock()
	c.diverged++
	c.mu.Unlock()
	return outcome{
		fired:         rep.Fired,
		shrinkCuts:    shrinkCuts,
		shrinkReplays: probes,
		repro: &Repro{
			SchemaVersion: ReproSchemaVersion,
			Profile:       c.cfg.Profile,
			Scheme:        c.rt.Sch,
			Machine:       c.mcfg,
			Compiler:      c.rt.Compiled.Config,
			Cuts:          minimal,
			Faults:        plan,
			OracleCycles:  c.orc.cycles,
			OracleHash:    c.orc.hash,
			Diff:          []string{diff.Error()},
			Note:          fmt.Sprintf("shrunk from %v in %d replays", sched, probes),
		},
	}
}

// verdictKey extends the canonical run key with the verdict schema version,
// the schedule and the fault plan, yielding the cache identity of one
// verdict.
func (c *campaign) verdictKey(sched Schedule) (key, hash string) {
	key = fmt.Sprintf("%s|crashfuzz:v%d|cuts=%v|faults=%s",
		c.key, experiments.VerdictCodec.Version, []uint64(sched), c.cfg.Faults.Key())
	sum := sha256.Sum256([]byte(key))
	return key, hex.EncodeToString(sum[:])
}

// tick advances the progress counter, emitting a line every 512 schedules.
func (c *campaign) tick() {
	if c.cfg.Progress == nil {
		return
	}
	c.mu.Lock()
	c.done++
	emit := c.done%512 == 0
	done, diverged := c.done, c.diverged
	c.mu.Unlock()
	if emit {
		c.progress(fmt.Sprintf("crashfuzz %s/%s: %d schedules resolved, %d divergences",
			c.cfg.Profile.Suite, c.cfg.Profile.Name, done, diverged))
	}
}

func (c *campaign) progress(line string) {
	if c.cfg.Progress == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Progress(line)
}

// plan derives the campaign's failure schedules: the base (first-cut) cycles
// and, for multi-cut campaigns, the follow-on cut offsets.
func plan(cfg Config, total uint64, interesting []uint64) ([]Schedule, string) {
	thresh := cfg.ExhaustiveThreshold
	if thresh == 0 {
		thresh = DefaultExhaustiveThreshold
	}
	var bases []uint64
	mode := "exhaustive"
	if total <= thresh {
		bases = make([]uint64, 0, total)
		for c := uint64(0); c < total; c++ {
			bases = append(bases, c)
		}
	} else {
		mode = "sampled"
		budget := cfg.MaxInjections
		if budget <= 0 {
			budget = DefaultMaxInjections
		}
		seen := map[uint64]struct{}{}
		add := func(c uint64) {
			if c < total {
				seen[c] = struct{}{}
			}
		}
		// Probe-guided: each interesting cycle and its neighbours, where
		// boundary/WPQ/escape state is in flight.
		for _, ic := range interesting {
			if ic > 0 {
				add(ic - 1)
			}
			add(ic)
			add(ic + 1)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < budget; i++ {
			add(rng.Uint64() % total)
		}
		bases = make([]uint64, 0, len(seen))
		for c := range seen {
			bases = append(bases, c)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	}

	cuts := maxInt(cfg.Cuts, 1)
	scheds := make([]Schedule, 0, len(bases))
	for i, base := range bases {
		s := Schedule{base}
		if cuts > 1 {
			// Per-base deterministic offsets; every fourth schedule's
			// second cut lands at cycle 0 of the recovered machine — a
			// power failure during recovery itself.
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64((base+1)*0x9E3779B97F4A7C15)))
			for k := 1; k < cuts; k++ {
				if k == 1 && i%4 == 0 {
					s = append(s, 0)
					continue
				}
				s = append(s, rng.Uint64()%total)
			}
		}
		scheds = append(scheds, s)
	}
	return scheds, mode
}

// writeArtifacts persists the campaign's repro files and manifest.
func writeArtifacts(dir string, res *Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range res.Repros {
		path := filepath.Join(dir, fmt.Sprintf("repro-%s-%02d.json", res.KeyHash[:12], i))
		if err := res.Repros[i].WriteFile(path); err != nil {
			return err
		}
		res.ReproPaths = append(res.ReproPaths, path)
	}
	blobs := experiments.NewBlobCache(dir)
	blobs.WriteJSON("manifest", res)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
