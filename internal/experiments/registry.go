package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"lightwsp/internal/baseline"
	"lightwsp/internal/core"
	"lightwsp/internal/machine"
)

// Experiment is one named, registry-resolvable evaluation driver: a
// reproduced figure or table from the paper. The registry is the single
// source of truth the bench CLI and the serving layer share, so a driver
// added here is immediately runnable from both. The crash-consistency
// fuzzing campaign is NOT in this registry — crashfuzz imports this package,
// so its entry lives with its callers (lightwsp-bench, internal/server).
type Experiment struct {
	// Name is the stable identifier (fig7, tab2, regions, ...).
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Run executes the driver over r's pool and caches.
	Run func(r *Runner) (fmt.Stringer, error)
}

// Registry returns the evaluation experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"fig7", "slowdown over baseline, all 38 applications", func(r *Runner) (fmt.Stringer, error) { return Fig7(r) }},
		{"fig8", "slowdown vs Capri/PPA/cWSP", func(r *Runner) (fmt.Stringer, error) { return Fig8(r) }},
		{"fig9", "memory-intensive applications vs ideal PSP", func(r *Runner) (fmt.Stringer, error) { return Fig9(r) }},
		{"fig10", "multi-threaded STAMP/NPB/SPLASH3 slowdowns", func(r *Runner) (fmt.Stringer, error) { return Fig10(r) }},
		{"fig11", "WPQ-size sensitivity sweep", func(r *Runner) (fmt.Stringer, error) { return Fig11(r) }},
		{"fig12", "persist-path bandwidth sensitivity sweep", func(r *Runner) (fmt.Stringer, error) { return Fig12(r) }},
		{"fig13", "memory-controller count sweep", func(r *Runner) (fmt.Stringer, error) { return Fig13(r) }},
		{"fig14", "boundary-snoop traffic", func(r *Runner) (fmt.Stringer, error) { return Fig14(r) }},
		{"fig15", "PM write-latency sensitivity sweep", func(r *Runner) (fmt.Stringer, error) { return Fig15(r) }},
		{"fig16", "store-threshold sensitivity", func(r *Runner) (fmt.Stringer, error) { return Fig16(r) }},
		{"fig17", "DRAM-cache sensitivity sweep", func(r *Runner) (fmt.Stringer, error) { return Fig17(r) }},
		{"fig18", "thread-count scaling", func(r *Runner) (fmt.Stringer, error) { return Fig18(r) }},
		{"tab2", "persist-path traffic breakdown (Table 2)", func(r *Runner) (fmt.Stringer, error) { return Table2(r) }},
		{"regions", "region-length and checkpoint statistics", func(r *Runner) (fmt.Stringer, error) { return RegionStats(r) }},
		{"hwcost", "hardware cost model (Table I deltas)", func(r *Runner) (fmt.Stringer, error) { return HWCost(8, 2), nil }},
		{"recovery", "recovery-correctness sweep", func(r *Runner) (fmt.Stringer, error) { return RecoverySweep(10) }},
		{"ablation-lrpo", "LRPO ablation (naive sfence per region)", func(r *Runner) (fmt.Stringer, error) { return AblationLRPO(r) }},
		{"ablation-compiler", "compiler-pass ablation", func(r *Runner) (fmt.Stringer, error) { return AblationCompiler(r) }},
	}
}

// ExperimentByName resolves one registry entry, case-insensitively.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.Name, name) {
			return e, true
		}
	}
	return Experiment{}, false
}

// SchemeByName resolves a persistence scheme by its evaluation name
// (lightwsp, baseline, capri, ppa, cwsp, psp-ideal, naive-sfence),
// case-insensitively. The name set matches Schemes.
func SchemeByName(name string) (machine.Scheme, bool) {
	for _, sch := range schemeTable() {
		if strings.EqualFold(sch.Name, name) {
			return sch, true
		}
	}
	return machine.Scheme{}, false
}

// schemeTable is Schemes built once, for SchemeByName: the serving layer
// resolves a scheme on every request.
var schemeTable = sync.OnceValue(Schemes)

// Schemes returns every named persistence scheme the evaluation compares,
// LightWSP first, the rest sorted by name.
func Schemes() []machine.Scheme {
	rest := []machine.Scheme{
		baseline.Baseline(), baseline.Capri(), baseline.PPA(),
		baseline.CWSP(), baseline.PSPIdeal(), baseline.NaiveSfence(),
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	return append([]machine.Scheme{core.Scheme()}, rest...)
}
