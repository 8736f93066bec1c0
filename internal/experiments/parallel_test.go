package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"testing"

	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/machine"
	"lightwsp/internal/workload"
)

// TestParallelRunnerSingleflight drives one shared Runner from many
// goroutines requesting the same run: exactly one simulation may execute,
// every caller must receive the same memoized result, and the remaining
// calls must be accounted as in-memory hits.
func TestParallelRunnerSingleflight(t *testing.T) {
	r := NewRunner()
	r.SetWorkers(4)
	p := cheapProfile(t)
	const callers = 6
	var wg sync.WaitGroup
	results := make([]*machine.Stats, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Run(p, baseline.Baseline(), compiler.Config{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatal("concurrent callers received different result objects")
		}
	}
	c := r.Counters()
	if c.Fresh != 1 {
		t.Fatalf("Fresh = %d, want 1 (singleflight must deduplicate)", c.Fresh)
	}
	if c.MemHits != callers-1 {
		t.Fatalf("MemHits = %d, want %d", c.MemHits, callers-1)
	}
}

// TestPrefetchDeduplicates hands Prefetch a spec list with duplicates —
// including distinct mutator closures of identical effect — and expects one
// simulation per distinct resolved configuration.
func TestPrefetchDeduplicates(t *testing.T) {
	r := NewRunner()
	r.SetWorkers(4)
	p := cheapProfile(t)
	bump := func(c *machine.Config) { c.NUMAExtra = 12 }
	bumpAgain := func(c *machine.Config) { c.NUMAExtra = 12 }
	specs := []RunSpec{
		spec(p, baseline.Baseline(), compiler.Config{}),
		spec(p, baseline.Baseline(), compiler.Config{}),
		spec(p, baseline.Baseline(), compiler.Config{}, bump),
		spec(p, baseline.Baseline(), compiler.Config{}, bumpAgain),
	}
	if err := r.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Fresh != 2 {
		t.Fatalf("Fresh = %d, want 2 distinct runs", c.Fresh)
	}
}

// TestParallelSubsetMatchesSequential runs two drivers concurrently over
// one shared parallel Runner and requires their rendered output to be
// byte-identical to a workers=1 reference — the determinism guarantee on a
// subset that runs on every `go test -race` pass. Race instrumentation
// slows simulation by roughly an order of magnitude, so under the race
// detector the drivers are a two-profile mini-grid (whose shared baseline
// runs still cross driver boundaries, exercising singleflight); otherwise
// they are the real AblationLRPO and Fig9 drivers.
func TestParallelSubsetMatchesSequential(t *testing.T) {
	type driver struct {
		name string
		run  func(*Runner) (string, error)
	}
	var drivers [2]driver
	if raceEnabled {
		profiles := []workload.Profile{cheapProfile(t)}
		if p, ok := workload.ByName(workload.CPU2006, "bzip2"); ok {
			profiles = append(profiles, p)
		}
		mini := func(sch machine.Scheme) func(*Runner) (string, error) {
			return func(r *Runner) (string, error) {
				var specs []RunSpec
				for _, p := range profiles {
					specs = append(specs, slowdownSpecs(p, sch, compiler.Config{})...)
				}
				if err := r.Prefetch(specs); err != nil {
					return "", err
				}
				var out string
				for _, p := range profiles {
					s, err := r.Slowdown(p, sch, compiler.Config{})
					if err != nil {
						return "", err
					}
					out += fmt.Sprintf("%s %.9f\n", p.Name, s)
				}
				return out, nil
			}
		}
		drivers[0] = driver{"mini-lightwsp", mini(LightWSP())}
		drivers[1] = driver{"mini-naive-sfence", mini(baseline.NaiveSfence())}
	} else {
		drivers[0] = driver{"ablation-lrpo", func(r *Runner) (string, error) {
			res, err := AblationLRPO(r)
			if err != nil {
				return "", err
			}
			return res.String(), nil
		}}
		drivers[1] = driver{"fig9", func(r *Runner) (string, error) {
			res, err := Fig9(r)
			if err != nil {
				return "", err
			}
			return res.String(), nil
		}}
	}

	seq := NewRunner()
	seq.SetWorkers(1)
	var want [2]string
	for i, d := range drivers {
		s, err := d.run(seq)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}

	par := NewRunner()
	par.SetWorkers(8)
	var got [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i, d := range drivers {
		wg.Add(1)
		go func(i int, d driver) { defer wg.Done(); got[i], errs[i] = d.run(par) }(i, d)
	}
	wg.Wait()
	for i, d := range drivers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("parallel %s diverged from sequential:\n%s\nvs\n%s", d.name, got[i], want[i])
		}
	}
}

// fig7fig9StatsFile pins the simulated statistics of every run the Fig7
// and Fig9 grids resolve: run-key hash → run label and Stats digest. The
// digests were taken from a workers=1 pass, so they are the sequential
// reference, and they hold across commits.
const fig7fig9StatsFile = "testdata/fig7fig9_stats.json"

// runDigest labels one run (suite/app/scheme) and fingerprints its Stats.
type runDigest struct {
	Run   string `json:"run"`
	Stats string `json:"stats"`
}

// runDigests fingerprints every run r has memoized, by run-key hash: the
// SHA-256 of the run's Stats as JSON, which covers every exported field by
// name (perfbench's statsDigest).
func runDigests(t *testing.T, r *Runner) map[string]runDigest {
	t.Helper()
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	out := make(map[string]runDigest, len(r.s.cache))
	for key, st := range r.s.cache {
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		m := r.s.manifests[key]
		out[keyHash(key)] = runDigest{Run: m.Suite + "/" + m.App + "/" + m.Scheme, Stats: hex.EncodeToString(sum[:])}
	}
	return out
}

// TestParallelFig7Fig9MatchSequential is the full determinism check of the
// parallel evaluation grid: concurrent Fig7+Fig9 over one shared Runner must
// reproduce, run for run, the Stats a sequential (workers=1) pass committed
// in fig7fig9StatsFile. The digests cover every Stats field, not the
// rounded tables, and a drift both passes would share still shows.
// Sequential-vs-parallel equality within one commit, also under -race, is
// TestParallelSubsetMatchesSequential's.
//
// A change meant to alter simulation deletes the file and runs this test:
// it then simulates both grids with workers=1, writes the file and fails
// once, so the new digests are reviewed and committed. The full Figure 7
// grid is ~160 simulations, so under the race detector this test defers to
// TestParallelSubsetMatchesSequential to keep the package inside the test
// timeout.
func TestParallelFig7Fig9MatchSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("full Fig7 grid is too slow under -race; subset determinism and race coverage run in TestParallelSubsetMatchesSequential")
	}
	if testing.Short() {
		t.Skip("full Fig7 grid skipped in -short mode")
	}
	raw, err := os.ReadFile(fig7fig9StatsFile)
	if errors.Is(err, fs.ErrNotExist) {
		seq := NewRunner()
		seq.SetWorkers(1)
		if _, err := Fig7(seq); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig9(seq); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(runDigests(t, seq), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fig7fig9StatsFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s from a workers=1 pass; review and commit it", fig7fig9StatsFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]runDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	par := NewRunner()
	par.SetWorkers(8)
	var wg sync.WaitGroup
	var f7Err, f9Err error
	wg.Add(2)
	go func() { defer wg.Done(); _, f7Err = Fig7(par) }()
	go func() { defer wg.Done(); _, f9Err = Fig9(par) }()
	wg.Wait()
	if f7Err != nil {
		t.Fatal(f7Err)
	}
	if f9Err != nil {
		t.Fatal(f9Err)
	}
	got := runDigests(t, par)
	for hash, w := range want {
		g, ok := got[hash]
		switch {
		case !ok:
			t.Errorf("%s (%s): committed run not resolved by the grids", w.Run, hash)
		case g != w:
			t.Errorf("%s (%s): stats digest %s, committed %s", g.Run, hash, g.Stats, w.Stats)
		}
	}
	for hash, g := range got {
		if _, ok := want[hash]; !ok {
			t.Errorf("%s (%s): run not in %s", g.Run, hash, fig7fig9StatsFile)
		}
	}
	// The shared parallel runner must have deduplicated Fig7's and Fig9's
	// overlapping LightWSP runs: 39 suite entries × 4 schemes for Fig7,
	// plus Fig9's PSP-Ideal runs (its baseline and LightWSP runs are
	// already memoized).
	if c := par.Counters(); c.Fresh >= 4*39+2*6 {
		t.Fatalf("Fresh = %d: concurrent drivers did not share overlapping runs", c.Fresh)
	}

	// A driver re-run on the warm runner is pure cache hits.
	pre := par.Counters().Fresh
	if _, err := Fig9(par); err != nil {
		t.Fatal(err)
	}
	if c := par.Counters(); c.Fresh != pre {
		t.Fatal("warm re-run of Fig9 performed fresh simulations")
	}
}

// TestWorkloadBuildRace builds the same profile concurrently: workload
// generation and compilation must be free of shared mutable state, because
// Prefetch runs them on the worker pool.
func TestWorkloadBuildRace(t *testing.T) {
	p := cheapProfile(t)
	var wg sync.WaitGroup
	progs := make([]string, 4)
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog, err := workload.Build(p)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := compiler.Compile(prog, compiler.DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = res.Prog.Disasm()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(progs); i++ {
		if progs[i] != progs[0] {
			t.Fatal("concurrent builds produced different programs")
		}
	}
}
