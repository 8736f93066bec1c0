// Command lightwsp demonstrates whole-system persistence end to end on one
// of the built-in workloads: it compiles the program with the LightWSP
// compiler, runs it on the simulated machine, cuts the power at a chosen
// cycle, executes the §IV-F drain protocol, recovers, finishes the run and
// verifies that the persisted result is bit-identical to a failure-free run.
//
// Usage:
//
//	lightwsp [-suite CPU2006] [-app hmmer] [-fail-at 0.5] [-threads 0] [-v]
//
// -fail-at is the failure point as a fraction of the failure-free run
// length; -threads overrides the workload's thread count (0 keeps it).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"lightwsp"
	"lightwsp/internal/cli"
	"lightwsp/internal/metrics"
	"lightwsp/internal/probe"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

func main() {
	var common cli.Common
	common.RegisterLogging(flag.CommandLine)
	suite := flag.String("suite", "CPU2006", "benchmark suite (CPU2006, CPU2017, STAMP, NPB, SPLASH3, WHISPER)")
	app := flag.String("app", "hmmer", "application name within the suite")
	failAt := flag.Float64("fail-at", 0.5, "power-failure point as a fraction of the run")
	threads := flag.Int("threads", 0, "thread count override (0 = workload default)")
	verbose := flag.Bool("v", false, "print compiler and run statistics")
	traceOrder := flag.Bool("trace", false, "verify the LRPO region order over every WPQ→PM write")
	timeline := flag.String("timeline", "", "write the clean run's cycle-level timeline as Chrome trace-event JSON (load in Perfetto)")
	showMetrics := flag.Bool("metrics", false, "print the clean run's probe-metrics counters and histograms")
	flag.Parse()
	log, err := common.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lightwsp:", err)
		os.Exit(2)
	}

	if err := run(*suite, *app, *failAt, *threads, *verbose, *traceOrder, *timeline, *showMetrics); err != nil {
		log.Error("run failed", "suite", *suite, "app", *app, "error", err)
		os.Exit(1)
	}
}

func run(suite, app string, failAt float64, threads int, verbose, traceOrder bool, timeline string, showMetrics bool) error {
	p, ok := workload.ByName(workload.Suite(suite), app)
	if !ok {
		return fmt.Errorf("unknown workload %s/%s", suite, app)
	}
	if threads > 0 {
		p.Threads = threads
	}
	prog, err := workload.Build(p)
	if err != nil {
		return err
	}
	cfg := lightwsp.DefaultConfig()
	cfg.Threads = p.Threads
	if cfg.Threads > cfg.Cores {
		cfg.Cores = cfg.Threads
	}
	rt, err := lightwsp.Open(prog, lightwsp.WithConfig(cfg))
	if err != nil {
		return err
	}
	fmt.Printf("workload  %s/%s  (%d threads, %d static instructions)\n",
		suite, app, p.Threads, prog.NumInstrs())
	if verbose {
		cs := rt.Compiled.Stats
		fmt.Printf("compiler  %d boundaries, %d checkpoints (+%d pruned), max region stores %d\n",
			cs.Boundaries, cs.Checkpoints, cs.PrunedCheckpoints, cs.MaxRegionStores)
	}

	const budget = 2_000_000_000
	sys, err := rt.NewSystem()
	if err != nil {
		return err
	}
	var order *probe.PersistOrder
	var tl *probe.Timeline
	var met *metrics.Metrics
	var sinks []probe.Sink
	if traceOrder {
		order = probe.NewPersistOrder(cfg.NumMCs)
		sinks = append(sinks, order)
	}
	if timeline != "" {
		tl = probe.NewTimeline(0)
		sinks = append(sinks, tl)
	}
	if showMetrics {
		met = metrics.New()
		sinks = append(sinks, met)
	}
	if len(sinks) > 0 {
		sys.SetProbeSink(probe.Multi(sinks...))
	}
	if !sys.Run(budget) {
		return fmt.Errorf("run exceeded %d cycles", uint64(budget))
	}
	clean := sys
	fmt.Printf("clean run %d cycles, %d instructions, %d regions persisted\n",
		clean.Stats.Cycles, clean.Stats.Instructions, clean.Stats.RegionsClosed)
	if order != nil {
		fmt.Printf("          %s\n", order.Summary())
		if err := order.Err(); err != nil {
			return fmt.Errorf("persist-order invariant violated: %w", err)
		}
		fmt.Println("          LRPO region order verified")
	}
	if tl != nil {
		if err := tl.WriteFile(timeline); err != nil {
			return fmt.Errorf("writing timeline: %w", err)
		}
		fmt.Printf("timeline  %d events -> %s (load in Perfetto / chrome://tracing)\n", tl.Len(), timeline)
	}
	if met != nil {
		fmt.Print(met.String())
	}
	if verbose {
		fmt.Printf("          persistence efficiency %.2f%%, %.1f insts/region, %.1f stores/region\n",
			clean.Stats.PersistenceEfficiency(), clean.Stats.InstrPerRegion(), clean.Stats.StoresPerRegion())
		fmt.Printf("          %s\n", clean.Stats.Summary())
	}

	fail := uint64(float64(clean.Stats.Cycles) * failAt)
	if fail == 0 {
		fail = 1
	}
	res, err := rt.RunWithFailure(context.Background(), fail, budget)
	if err != nil {
		return err
	}
	if !res.Failed {
		fmt.Println("the run finished before the failure point; nothing to recover")
		return nil
	}
	fmt.Printf("power cut at cycle %d: %d unpersisted WPQ entries discarded by the drain protocol\n",
		res.Report.Cycle, res.Report.Discarded)
	fmt.Printf("recovered and finished in %d further cycles\n", res.Recovered.Stats.Cycles)

	if err := recovery.Verdict(res.Recovered, clean.PM(), p.Threads); err != nil {
		return err
	}
	if p.Threads == 1 {
		fmt.Println("verified: persisted data identical to the failure-free run")
	} else {
		fmt.Println("verified: whole-system persistence holds after recovery (PM ≡ architectural state)")
	}
	return nil
}
