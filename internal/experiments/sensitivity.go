package experiments

import (
	"fmt"

	"lightwsp/internal/compiler"
	"lightwsp/internal/machine"
	"lightwsp/internal/stats"
	"lightwsp/internal/workload"
)

// SweepResult is the common shape of the sensitivity figures: per-suite
// LightWSP slowdown geomeans for each swept configuration.
type SweepResult struct {
	Title string
	// Configs names the swept points in presentation order.
	Configs []string
	// SuiteGeo[suite][i] is the geomean slowdown under Configs[i].
	SuiteGeo map[workload.Suite][]float64
	// OverallGeo[i] is the all-application geomean under Configs[i].
	OverallGeo []float64
}

func (s *SweepResult) String() string {
	t := &stats.Table{Title: s.Title, Columns: append([]string{"suite"}, s.Configs...)}
	for _, su := range workload.Suites() {
		if _, ok := s.SuiteGeo[su]; !ok {
			continue
		}
		row := []interface{}{string(su)}
		for _, v := range s.SuiteGeo[su] {
			row = append(row, v)
		}
		t.Add(row...)
	}
	row := []interface{}{"ALL"}
	for _, v := range s.OverallGeo {
		row = append(row, v)
	}
	t.Add(row...)
	return t.String()
}

// sweep runs LightWSP over all profiles for each (mutator, compiler-config)
// point and aggregates per-suite geomeans.
func sweep(r *Runner, title string, names []string, points []struct {
	mut  Mutator
	ccfg compiler.Config
}, profiles []workload.Profile) (*SweepResult, error) {
	var specs []RunSpec
	for _, p := range profiles {
		for _, pt := range points {
			muts := []Mutator{}
			if pt.mut != nil {
				muts = append(muts, pt.mut)
			}
			specs = append(specs, slowdownSpecs(p, LightWSP(), pt.ccfg, muts...)...)
		}
	}
	if err := r.Prefetch(specs); err != nil {
		return nil, err
	}
	res := &SweepResult{Title: title, Configs: names, SuiteGeo: map[workload.Suite][]float64{}}
	perSuite := map[workload.Suite][][]float64{}
	overall := make([][]float64, len(points))
	for _, p := range profiles {
		for i, pt := range points {
			muts := []Mutator{}
			if pt.mut != nil {
				muts = append(muts, pt.mut)
			}
			sd, err := r.Slowdown(p, LightWSP(), pt.ccfg, muts...)
			if err != nil {
				return nil, fmt.Errorf("%s @%s: %w", p.Name, names[i], err)
			}
			if perSuite[p.Suite] == nil {
				perSuite[p.Suite] = make([][]float64, len(points))
			}
			perSuite[p.Suite][i] = append(perSuite[p.Suite][i], sd)
			overall[i] = append(overall[i], sd)
		}
	}
	for su, cols := range perSuite {
		geos := make([]float64, len(points))
		for i := range cols {
			geos[i] = stats.Geomean(cols[i])
		}
		res.SuiteGeo[su] = geos
	}
	for _, col := range overall {
		res.OverallGeo = append(res.OverallGeo, stats.Geomean(col))
	}
	return res, nil
}

type sweepPoint = struct {
	mut  Mutator
	ccfg compiler.Config
}

// Fig11 sweeps the WPQ size (64/128/256 entries) with the store threshold
// at half the WPQ size, as §V-F1 does: larger WPQs perform best.
func Fig11(r *Runner) (*SweepResult, error) {
	points := []sweepPoint{}
	names := []string{}
	for _, entries := range []int{256, 128, 64} {
		entries := entries
		names = append(names, fmt.Sprintf("WPQ-%d", entries))
		points = append(points, sweepPoint{mut: func(c *machine.Config) {
			c.WPQEntries = entries
			c.FEBEntries = entries // §IV-E: FEB size tracks the WPQ
		}})
	}
	return sweep(r, "Figure 11: WPQ size sensitivity (LightWSP slowdown)", names, points, workload.Profiles())
}

// Fig12 sweeps the store threshold (16/32/64) at the default 64-entry WPQ
// (§V-F2): half the WPQ size balances persistence efficiency against
// checkpoint overhead. A threshold above the WPQ size would let a single
// region overflow the queue; 64 at a 64-entry WPQ exercises that worst
// legal point.
func Fig12(r *Runner) (*SweepResult, error) {
	points := []sweepPoint{}
	names := []string{}
	for _, th := range []int{16, 32, 64} {
		names = append(names, fmt.Sprintf("St-Threshold-%d", th))
		points = append(points, sweepPoint{
			ccfg: compiler.Config{StoreThreshold: th, MaxUnroll: 4},
		})
	}
	return sweep(r, "Figure 12: store-threshold sensitivity at WPQ 64 (LightWSP slowdown)", names, points, workload.Profiles())
}

// Fig15 sweeps the persist-path bandwidth (4/2/1 GB/s, §V-F4): the
// front-end buffer fills faster at lower bandwidth and back-pressures the
// store buffer.
func Fig15(r *Runner) (*SweepResult, error) {
	type bw struct {
		name   string
		bytes  int
		cycles uint64
	}
	bws := []bw{{"4GB/s", 2, 1}, {"2GB/s", 1, 1}, {"1GB/s", 1, 2}}
	points := []sweepPoint{}
	names := []string{}
	for _, b := range bws {
		b := b
		names = append(names, b.name)
		points = append(points, sweepPoint{mut: func(c *machine.Config) {
			c.PersistBytesPerCredit = b.bytes
			c.PersistCreditCycles = b.cycles
		}})
	}
	return sweep(r, "Figure 15: persist-path bandwidth sensitivity (LightWSP slowdown)", names, points, workload.Profiles())
}

// Fig16Result reproduces §V-F5: LightWSP slowdown of the parallel suites at
// 8/16/32/64 threads, plus the WPQ overflow rate the paper quotes (1.9 per
// 10k instructions at 64 threads, reduced ~5× by a 256-entry WPQ).
type Fig16Result struct {
	Sweep *SweepResult
	// OverflowPer10K[i] is the deadlock-escape activations per 10k
	// instructions at the i-th thread count (64-entry WPQ).
	OverflowPer10K []float64
	// OverflowPer10K256 is the 64-thread rate with a 256-entry WPQ.
	OverflowPer10K256 float64
}

// Fig16 sweeps the thread count on the parallel suites. To keep the sweep
// tractable on one host core (a 64-thread simulation ticks 64 cores and
// persist paths every cycle), it uses two representative applications per
// parallel suite; the paper's figure reports per-suite bars, which two
// members reproduce.
func Fig16(r *Runner) (*Fig16Result, error) {
	var parallel []workload.Profile
	perSuite := map[workload.Suite]int{}
	for _, p := range workload.Profiles() {
		if p.Threads > 1 && perSuite[p.Suite] < 2 {
			parallel = append(parallel, p)
			perSuite[p.Suite]++
		}
	}
	counts := []int{8, 16, 32, 64}
	points := []sweepPoint{}
	names := []string{}
	for _, n := range counts {
		n := n
		names = append(names, fmt.Sprintf("%d-thread", n))
		points = append(points, sweepPoint{mut: func(c *machine.Config) { c.Threads = n }})
	}
	// ResolveConfigs sets Threads from the profile before the mutators run
	// and raises Cores to cover Threads after them, so the mutator's thread
	// count controls the sweep.
	sw, err := sweep(r, "Figure 16: thread-count sensitivity (LightWSP slowdown, parallel suites)", names, points, parallel)
	if err != nil {
		return nil, err
	}
	res := &Fig16Result{Sweep: sw}
	for _, n := range counts {
		n := n
		rate, err := overflowRate(r, parallel, func(c *machine.Config) { c.Threads = n })
		if err != nil {
			return nil, err
		}
		res.OverflowPer10K = append(res.OverflowPer10K, rate)
	}
	rate, err := overflowRate(r, parallel, func(c *machine.Config) {
		c.Threads = 64
		c.WPQEntries = 256
		c.FEBEntries = 256
	})
	if err != nil {
		return nil, err
	}
	res.OverflowPer10K256 = rate
	return res, nil
}

func overflowRate(r *Runner, profiles []workload.Profile, mut Mutator) (float64, error) {
	var specs []RunSpec
	for _, p := range profiles {
		specs = append(specs, spec(p, LightWSP(), compiler.Config{}, mut))
	}
	if err := r.Prefetch(specs); err != nil {
		return 0, err
	}
	var overflows, insts uint64
	for _, p := range profiles {
		st, err := r.Run(p, LightWSP(), compiler.Config{}, mut)
		if err != nil {
			return 0, err
		}
		overflows += st.WPQDeadlocks
		insts += st.Instructions
	}
	if insts == 0 {
		return 0, nil
	}
	return float64(overflows) / float64(insts) * 10_000, nil
}

func (f *Fig16Result) String() string {
	s := f.Sweep.String()
	t := &stats.Table{
		Title:   "WPQ overflow rate (deadlock escapes per 10k instructions)",
		Columns: []string{"threads", "WPQ-64", "WPQ-256"},
	}
	counts := []string{"8", "16", "32", "64"}
	for i, c := range counts {
		if c == "64" {
			t.Add(c, f.OverflowPer10K[i], f.OverflowPer10K256)
		} else {
			t.Add(c, f.OverflowPer10K[i], "-")
		}
	}
	return s + "\n" + t.String()
}

// Fig17 sweeps the CXL device configurations of Table III (§V-F6). The
// paper reports under 16% average overhead across all of them.
func Fig17(r *Runner) (*SweepResult, error) {
	points := []sweepPoint{}
	names := []string{}
	for _, preset := range CXLPresets() {
		names = append(names, preset.Name)
		points = append(points, sweepPoint{mut: preset.Apply()})
	}
	return sweep(r, "Figure 17: CXL device configurations (LightWSP slowdown)", names, points, workload.Profiles())
}
