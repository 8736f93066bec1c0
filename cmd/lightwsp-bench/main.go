// Command lightwsp-bench runs the paper's evaluation experiments and prints
// each reproduced table or figure. With no positional arguments it runs
// everything; otherwise arguments name the experiments to run (fig7 fig8
// fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 tab2 regions
// hwcost recovery crashfuzz ablation-lrpo ablation-compiler).
//
// The evaluation grid is embarrassingly parallel: every driver declares its
// run set up front and distinct simulations fan out across a worker pool
// (-j, default GOMAXPROCS). With -cache DIR (or LIGHTWSP_CACHE_DIR set),
// completed runs persist to disk and later invocations skip them entirely.
// Parallelism and caching never change a reproduced number: results are
// keyed by a canonical content hash and aggregated in deterministic order.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"lightwsp/internal/cli"
	"lightwsp/internal/crashfuzz"
	"lightwsp/internal/experiments"
	"lightwsp/internal/metrics"
)

// benchReport is the machine-readable summary written by -json: the
// perf-trajectory record of one full invocation.
type benchReport struct {
	// TotalRuns is the number of distinct simulations resolved.
	TotalRuns int `json:"total_runs"`
	// FreshRuns is how many of those were actually simulated.
	FreshRuns int `json:"fresh_runs"`
	// DiskCacheHits is how many were loaded from the persistent cache.
	DiskCacheHits int `json:"disk_cache_hits"`
	// MemCacheHits counts Run calls served by the in-memory memo table.
	MemCacheHits int `json:"mem_cache_hits"`
	// Workers is the worker-pool size used.
	Workers int `json:"workers"`
	// WallSeconds is the end-to-end wall time of the invocation.
	WallSeconds float64 `json:"wall_seconds"`
	// Experiments lists the experiments executed, in order.
	Experiments []string `json:"experiments"`
	// Metrics aggregates every resolved run's probe metrics (counters sum,
	// histogram buckets merge exactly), rendering suite-wide p50/p90/p99.
	Metrics metrics.Snapshot `json:"metrics"`
	// Runs holds one provenance manifest per distinct resolved run: key
	// hash, fresh/cached source, wall time, git describe, per-run metrics.
	Runs []experiments.RunManifest `json:"runs"`
}

func main() {
	var common cli.Common
	common.Register(flag.CommandLine)
	jsonPath := flag.String("json", "",
		"write a machine-readable run summary (e.g. BENCH_runner.json)")
	timelineDir := flag.String("timeline-dir", "",
		"write one Chrome trace-event timeline per fresh simulation into this directory")
	flag.Parse()
	log, err := common.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	plan, err := common.Plan()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[a] = true
	}
	all := len(want) == 0

	r := common.NewRunner()
	r.SetTimelineDir(*timelineDir)

	// The experiments registry plus crashfuzz, which cannot live there
	// because it imports internal/experiments.
	type exp struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	var exps []exp
	for _, e := range experiments.Registry() {
		e := e
		exps = append(exps, exp{e.Name, func() (fmt.Stringer, error) { return e.Run(r) }})
	}
	exps = append(exps, exp{"crashfuzz", func() (fmt.Stringer, error) {
		return crashfuzz.Smoke(context.Background(), crashfuzz.Config{
			Faults: plan, Pool: experiments.NewPool(common.Workers),
		})
	}})
	known := map[string]bool{}
	for _, e := range exps {
		known[e.name] = true
	}
	for name := range want {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid names:", name)
			for _, e := range exps {
				fmt.Fprintf(os.Stderr, " %s", e.name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
	}

	start := time.Now()
	var ran []string
	for _, e := range exps {
		if !all && !want[e.name] {
			continue
		}
		expStart := time.Now()
		res, err := e.run()
		if err != nil {
			log.Error("experiment failed", "experiment", e.name, "error", err)
			os.Exit(1)
		}
		log.Debug("experiment done", "experiment", e.name,
			"wall_s", time.Since(expStart).Seconds())
		ran = append(ran, e.name)
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", e.name, time.Since(expStart).Seconds(), res)
	}

	c := r.Counters()
	if common.Verbose {
		log.Info("runner summary",
			"runs", c.Fresh+c.DiskHits, "fresh", c.Fresh, "disk_hits", c.DiskHits,
			"memo_hits", c.MemHits, "workers", common.Workers,
			"wall_s", time.Since(start).Seconds())
		fmt.Fprint(os.Stderr, experiments.AggregateMetrics(r.Manifests()).String())
	}
	if *jsonPath != "" {
		runs := r.Manifests()
		rep := benchReport{
			TotalRuns:     c.Fresh + c.DiskHits,
			FreshRuns:     c.Fresh,
			DiskCacheHits: c.DiskHits,
			MemCacheHits:  c.MemHits,
			Workers:       common.Workers,
			WallSeconds:   time.Since(start).Seconds(),
			Experiments:   ran,
			Metrics:       experiments.AggregateMetrics(runs),
			Runs:          runs,
		}
		data, err := json.MarshalIndent(rep, "", "\t")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
