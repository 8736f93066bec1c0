package experiments

import (
	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/stats"
	"lightwsp/internal/workload"
)

// ablationSet is the representative subset the ablations run on: one
// cache-friendly and one memory-intensive single-threaded application plus
// one sync-heavy parallel application per behaviour class.
func ablationSet() []workload.Profile {
	var out []workload.Profile
	for _, pick := range []struct {
		s workload.Suite
		n string
	}{
		{workload.CPU2006, "hmmer"},
		{workload.CPU2006, "bzip2"},
		{workload.CPU2006, "lbm"},
		{workload.STAMP, "vacation"},
		{workload.NPB, "mg"},
		{workload.WHISPER, "tatp"},
	} {
		if p, ok := workload.ByName(pick.s, pick.n); ok {
			out = append(out, p)
		}
	}
	return out
}

// AblationLRPOResult compares LightWSP with the naive sfence-per-region
// strawman of §III-B on the ablation subset — the direct measurement of
// what lazy region-level persist ordering buys.
type AblationLRPOResult struct {
	Apps []AblationLRPORow
	// Geo is the [naive, lightwsp] geomean pair.
	Geo [2]float64
}

// AblationLRPORow is one application's pair.
type AblationLRPORow struct {
	Suite           workload.Suite
	Name            string
	Naive, LightWSP float64
}

// AblationLRPO runs the LRPO ablation.
func AblationLRPO(r *Runner) (*AblationLRPOResult, error) {
	var specs []RunSpec
	for _, p := range ablationSet() {
		specs = append(specs, slowdownSpecs(p, baseline.NaiveSfence(), compiler.Config{})...)
		specs = append(specs, slowdownSpecs(p, LightWSP(), compiler.Config{})...)
	}
	if err := r.Prefetch(specs); err != nil {
		return nil, err
	}
	res := &AblationLRPOResult{}
	var ns, ls []float64
	for _, p := range ablationSet() {
		n, err := r.Slowdown(p, baseline.NaiveSfence(), compiler.Config{})
		if err != nil {
			return nil, err
		}
		l, err := r.Slowdown(p, LightWSP(), compiler.Config{})
		if err != nil {
			return nil, err
		}
		res.Apps = append(res.Apps, AblationLRPORow{Suite: p.Suite, Name: p.Name, Naive: n, LightWSP: l})
		ns, ls = append(ns, n), append(ls, l)
	}
	res.Geo = [2]float64{stats.Geomean(ns), stats.Geomean(ls)}
	return res, nil
}

func (a *AblationLRPOResult) String() string {
	t := &stats.Table{
		Title:   "Ablation: naive sfence-per-region vs lazy region-level persist ordering (§III-B)",
		Columns: []string{"suite", "app", "naive-sfence", "lightwsp"},
	}
	for _, row := range a.Apps {
		t.Add(string(row.Suite), row.Name, row.Naive, row.LightWSP)
	}
	t.Add("ALL", "geomean", a.Geo[0], a.Geo[1])
	return t.String()
}

// AblationCompilerResult compares the compiler's optimizations (§IV-A): the
// default pipeline against disabling loop unrolling, region combining and
// checkpoint pruning, by static checkpoint cost and run time.
type AblationCompilerResult struct {
	Rows []AblationCompilerRow
}

// AblationCompilerRow is one configuration's aggregate.
type AblationCompilerRow struct {
	Config      string
	Checkpoints int     // static checkpoint stores across the subset
	Boundaries  int     // static boundaries
	GeoSlowdown float64 // vs baseline, subset geomean
}

// AblationCompiler runs the compiler-optimization ablation. Every
// configuration keeps the default store threshold (half the WPQ, §IV-A).
func AblationCompiler(r *Runner) (*AblationCompilerResult, error) {
	configs := []struct {
		name string
		cc   compiler.Config
	}{
		{"default", compiler.Config{}},
		{"no-unroll", compiler.Config{MaxUnroll: 1}},
		{"no-combine", compiler.Config{DisableCombining: true}},
		{"no-prune", compiler.Config{DisablePruning: true}},
	}
	var specs []RunSpec
	for _, cfg := range configs {
		for _, p := range ablationSet() {
			specs = append(specs, slowdownSpecs(p, LightWSP(), cfg.cc)...)
		}
	}
	if err := r.Prefetch(specs); err != nil {
		return nil, err
	}
	res := &AblationCompilerResult{}
	for _, cfg := range configs {
		row := AblationCompilerRow{Config: cfg.name}
		var sds []float64
		for _, p := range ablationSet() {
			mcfg, ccfg := ResolveConfigs(p, cfg.cc)
			rt, err := BuildRuntime(p, LightWSP(), mcfg, ccfg, nil)
			if err != nil {
				return nil, err
			}
			row.Checkpoints += rt.Compiled.Stats.Checkpoints
			row.Boundaries += rt.Compiled.Stats.Boundaries
			sd, err := r.Slowdown(p, LightWSP(), cfg.cc)
			if err != nil {
				return nil, err
			}
			sds = append(sds, sd)
		}
		row.GeoSlowdown = stats.Geomean(sds)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (a *AblationCompilerResult) String() string {
	t := &stats.Table{
		Title:   "Ablation: compiler optimizations (§IV-A), representative subset",
		Columns: []string{"config", "static ckpts", "static boundaries", "slowdown geomean"},
	}
	for _, row := range a.Rows {
		t.Add(row.Config, row.Checkpoints, row.Boundaries, row.GeoSlowdown)
	}
	return t.String()
}
