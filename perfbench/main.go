// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives three closed-loop workloads through the program's own Go API
// and HTTP surface:
//
//   - sim_sweep: 16 fresh simulations through experiments.Runner.Run;
//   - crash_campaign: sampled crashfuzz campaigns on CPU2006 hmmer;
//   - fleet_rw: reads and durable session writes through an in-process
//     load balancer in front of a 3-node fleet, driven by lightwsp/client.
//
// A run prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics. With -trace 0 the
// metrics are the end-to-end metrics every workload reports; with -trace 1
// the run alternates untraced work with work that records spans around the
// calls into each layer, and reports every per-layer metric plus the
// tracing overhead. See README.md for the workloads, metrics and how they
// relate.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload fleet_rw --seed 3 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seconds 25
//	bash perfbench/run.sh --workload crash_campaign --steady 10
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(ctx context.Context, rc *runConfig) (*result, error){
	"sim_sweep":      runSimSweep,
	"crash_campaign": runCrashCampaign,
	"fleet_rw":       runFleetRW,
}

// workloadOrder is the order "all" and the steadiness mode run them in.
var workloadOrder = []string{"sim_sweep", "crash_campaign", "fleet_rw"}

// callers is the number of concurrent closed-loop callers every workload
// uses: the 2 CPUs of the host the sizes were chosen on.
const callers = 2

// buildDir holds everything a run writes, relative to the repository root.
const buildDir = ".bench_build"

//go:embed expected.json
var expectedJSON []byte

// expected holds the committed outputs every run is checked against.
type expected struct {
	// Sim maps "suite/app/scheme" to the statsDigest of that simulation.
	Sim map[string]string `json:"sim"`
	// OracleCycles and OracleHash identify crash_campaign's failure-free run.
	OracleCycles uint64 `json:"oracle_cycles"`
	OracleHash   string `json:"oracle_hash"`
	// SessionPMHash is the last pm_hash of a finished fleet_rw session.
	SessionPMHash string `json:"session_pm_hash"`
}

// runConfig is one run's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for the run's files, removed afterwards
	exp     expected
	tally   tally
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// metricSpec is one metric BENCHMARK.json lists, with its unit.
type metricSpec struct{ name, unit string }

// endToEnd is what every untraced run reports, whatever the workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
}

// perLayer is what every traced run reports. A workload that never reaches
// a layer reports its metrics as 0.
var perLayer = []metricSpec{
	{"workload.build_s", "s"},
	{"compiler.compile_s", "s"},
	{"machine.new_system_s", "s"},
	{"machine.step_s", "s"},
	{"machine.step_share", "ratio"},
	{"experiments.op_s", "s"},
	{"experiments.runner_overhead_s", "s"},
	{"machine.host_ns_per_inst", "ns"},
	{"machine.sim_instructions", "count"},
	{"machine.sim_cycles", "count"},
	{"machine.ff_skipped_cycles", "count"},
	{"machine.ff_jumps", "count"},
	{"machine.stall_feb_full", "count"},
	{"machine.stall_drain", "count"},
	{"persistpath.flushed", "count"},
	{"wpq.cam_searches", "count"},
	{"wpq.undo_writes", "count"},
	{"mem.l1_misses", "count"},
	{"mem.dram_misses", "count"},
	{"crashfuzz.oracle_s", "s"},
	{"core.new_system_s", "s"},
	{"machine.prefix_step_s", "s"},
	{"machine.powerfail_s", "s"},
	{"core.recover_s", "s"},
	{"machine.suffix_step_s", "s"},
	{"recovery.verify_s", "s"},
	{"crashfuzz.injection_s", "s"},
	{"crashfuzz.prefix_share", "ratio"},
	{"crashfuzz.step_share", "ratio"},
	{"crashfuzz.campaign_overhead_s", "s"},
	{"crashfuzz.schedules", "count"},
	{"crashfuzz.injections", "count"},
	{"crashfuzz.divergences", "count"},
	{"machine.powerfail_discarded", "count"},
	{"client.reads_per_s", "1/s"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p90_ms", "ms"},
	{"client.writes_per_s", "1/s"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p90_ms", "ms"},
	{"server.cold_run_ms", "ms"},
	{"fleet.lb_hop_ms", "ms"},
	{"server.read_handler_us", "us"},
	{"server.http_loopback_us", "us"},
	{"experiments.advance_plain_ms", "ms"},
	{"experiments.advance_snap_ms", "ms"},
	{"server.advance_overhead_ms", "ms"},
	{"hostfs.syncs", "count"},
	{"hostfs.sync_ms", "ms"},
	{"hostfs.write_mb", "MB"},
	{"experiments.l2_reads", "count"},
	{"experiments.l2_read_ms", "ms"},
	{"experiments.l2_writes", "count"},
	{"experiments.l2_write_ms", "ms"},
	{"experiments.lease_claims", "count"},
	{"experiments.runs_fresh", "count"},
	{"experiments.runs_fresh_after_setup", "count"},
	{"experiments.runs_mem_cache", "count"},
	{"experiments.runs_disk_cache", "count"},
	{"experiments.runs_fleet", "count"},
	{"experiments.store_l1_hits", "count"},
	{"experiments.store_l2_hits", "count"},
	{"experiments.store_misses", "count"},
	{"experiments.snapshots", "count"},
	{"fleet.forwards", "count"},
	{"fleet.lb_failovers", "count"},
	{"server.rejected", "count"},
	{"go.gc_cpu_s", "s"},
	{"go.alloc_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// complete checks a workload's metrics against the list its mode reports:
// every name known and in its unit, and, untraced, every end-to-end metric
// present. Traced, it adds each per-layer metric the workload did not
// reach as 0.
func (r *result) complete(traced bool) error {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	units := map[string]string{}
	for _, s := range specs {
		units[s.name] = s.unit
	}
	for name, m := range r.Metrics {
		if u, ok := units[name]; !ok || u != m.Unit {
			return fmt.Errorf("metric %s in %q is not in the list (unit %q)", name, m.Unit, u)
		}
	}
	for _, s := range specs {
		if _, ok := r.Metrics[s.name]; ok {
			continue
		}
		if !traced {
			return fmt.Errorf("end-to-end metric %s not measured", s.name)
		}
		r.set(s.name, 0, s.unit)
	}
	return nil
}

// tally counts operations attempted and failed. An error, a non-2xx answer,
// a mismatch against a committed or set-up output, or a divergence is one
// failed operation.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	shown             int
}

// op records one attempted operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted.Add(1)
	if err != nil {
		t.fail(err)
	}
}

// ops records n attempted operations of which bad failed, err saying why.
func (t *tally) ops(n, bad int64, err error) {
	t.attempted.Add(n)
	for i := int64(0); i < bad; i++ {
		t.fail(err)
	}
}

// fail records a failure of an operation already counted as attempted.
func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shown < 5 {
		t.shown++
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", err)
	}
}

func (t *tally) fill(r *result) {
	r.Attempted, r.Failed = t.attempted.Load(), t.failed.Load()
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// timedSetups performs a set-up n times and returns the median duration in
// seconds (setup_s). teardown, when non-nil, runs after every set-up but
// the last, whose state the run then measures.
func timedSetups(n int, setup func() error, teardown func()) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups took %.3f s\n", ds)
	return median(ds), nil
}

// closedLoop runs ops 0..n-1 in index order on callers goroutines; each
// caller takes the next op only once its previous one has returned.
func closedLoop(n int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}

// round is one repeated unit of a run's measured phase: a sweep pass, a
// campaign or a fleet window.
type round struct {
	wall float64 // seconds elapsed
	ops  int     // ops completed
}

// reportRounds sets the end-to-end metrics. ops_per_s is the median over
// the rounds, so a stall that hits one round moves it by at most one rank.
func reportRounds(res *result, setupS float64, rounds []round) {
	var rates []float64
	for _, r := range rounds {
		if r.ops > 0 {
			rates = append(rates, float64(r.ops)/r.wall)
		}
	}
	res.set("setup_s", setupS, "s")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("ops_per_s", median(rates), "1/s")
}

func (rc *runConfig) duration() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// alternate runs an untraced and a traced unit of work in turns until d
// has elapsed, at least once each, so that slow drifts in host speed fall
// on both alike. It returns the Go runtime's GC CPU seconds and allocated
// bytes during the untraced units.
func alternate(d time.Duration, untraced, traced func()) (gcCPU, allocBytes float64) {
	for deadline, first := time.Now().Add(d), true; first || time.Now().Before(deadline); first = false {
		gc0, alloc0 := goCounters()
		untraced()
		gc1, alloc1 := goCounters()
		gcCPU += gc1 - gc0
		allocBytes += alloc1 - alloc0
		traced()
	}
	return gcCPU, allocBytes
}

// overheadPct is the tracing overhead: how much lower the traced
// throughput is than the untraced one, in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}

func main() {
	name := flag.String("workload", "", "sim_sweep, crash_campaign, fleet_rw, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	steady := flag.Int("steady", 0, "run each workload this many times with seeds seed, seed+1, ... and print each end-to-end metric's median and quartiles")
	update := flag.Bool("update-expected", false, "recompute the committed outputs into perfbench/expected.json")
	flag.Parse()

	var err error
	switch {
	case *update:
		err = updateExpected()
	case *steady > 0:
		err = steadiness(*name, *seed, *seconds, *steady)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runOne performs one run of one workload and prints its stamp and result.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	run, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sim_sweep, crash_campaign, fleet_rw or all)", name)
	}
	rc := &runConfig{seed: seed, seconds: seconds, trace: traced}
	if err := json.Unmarshal(expectedJSON, &rc.exp); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc.dir = dir

	res, err := run(context.Background(), rc)
	if err == nil {
		err = res.complete(traced)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rc.tally.fill(res)
	stamp, _ := json.Marshal(map[string]any{"stamp": runStamp(name, seed, seconds, traced)})
	fmt.Println(string(stamp))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spansPath is where a traced run writes its spans.
func spansPath(name string, seed int64) string {
	return filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
