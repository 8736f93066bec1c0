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
	// Desc is a one-line description for listings: the experiment's title
	// in EXPERIMENTS.md.
	Desc string
	// Run executes the driver over r's pool and caches.
	Run func(r *Runner) (fmt.Stringer, error)
}

// Registry returns the evaluation experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"fig7", "headline comparison (Capri / PPA / LightWSP)", func(r *Runner) (fmt.Stringer, error) { return Fig7(r) }},
		{"fig8", "region-level persistence efficiency (Eq. 1)", func(r *Runner) (fmt.Stringer, error) { return Fig8(r) }},
		{"fig9", "ideal PSP vs. whole-system persistence", func(r *Runner) (fmt.Stringer, error) { return Fig9(r) }},
		{"fig10", "cWSP vs. LightWSP", func(r *Runner) (fmt.Stringer, error) { return Fig10(r) }},
		{"fig11", "WPQ size sensitivity (64/128/256)", func(r *Runner) (fmt.Stringer, error) { return Fig11(r) }},
		{"fig12", "store-threshold sensitivity (16/32/64 at WPQ 64)", func(r *Runner) (fmt.Stringer, error) { return Fig12(r) }},
		{"fig13", "buffer-snooping victim policies", func(r *Runner) (fmt.Stringer, error) { return Fig13(r) }},
		{"fig14", "cache miss rate with/without snooping", func(r *Runner) (fmt.Stringer, error) { return Fig14(r) }},
		{"fig15", "persist-path bandwidth (4/2/1 GB/s)", func(r *Runner) (fmt.Stringer, error) { return Fig15(r) }},
		{"fig16", "thread count (8/16/32/64)", func(r *Runner) (fmt.Stringer, error) { return Fig16(r) }},
		{"fig17", "CXL device configurations (Table III)", func(r *Runner) (fmt.Stringer, error) { return Fig17(r) }},
		{"fig18", "WPQ load-hit rate", func(r *Runner) (fmt.Stringer, error) { return Fig18(r) }},
		{"tab2", "buffer-conflict rate", func(r *Runner) (fmt.Stringer, error) { return Table2(r) }},
		{"regions", "region statistics", func(r *Runner) (fmt.Stringer, error) { return RegionStats(r) }},
		{"hwcost", "hardware cost", func(r *Runner) (fmt.Stringer, error) { return HWCost(8, 2), nil }},
		{"recovery", "recovery protocol validation", func(r *Runner) (fmt.Stringer, error) { return RecoverySweep(10) }},
		{"ablation-lrpo", "Lazy region-level persist ordering", func(r *Runner) (fmt.Stringer, error) { return AblationLRPO(r) }},
		{"ablation-compiler", "Compiler optimizations", func(r *Runner) (fmt.Stringer, error) { return AblationCompiler(r) }},
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
