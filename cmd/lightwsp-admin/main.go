// Command lightwsp-admin is the storage operator's toolbox for the durable
// layer. It has two verbs:
//
//	lightwsp-admin scrub -dir CACHEDIR [-quota BYTES] [-json]
//	lightwsp-admin scrub -sessions STOREDIR [-quota BYTES] [-json]
//	lightwsp-admin diskfuzz [-seed N] [-rounds N] [-legs N]
//	    [-disk-faults PLAN] [-skip-verify] [-out DIR] [-json FILE] [-v]
//
// scrub walks a blob store, verifies every entry's integrity seal,
// quarantines corrupt entries, evicts stale ones (unsealed or of an unknown
// codec version), garbage-collects blobs no session manifest references
// (-sessions mode), and enforces an optional size quota — the offline face
// of the self-healing the serving path performs lazily on every read.
//
// diskfuzz runs a hostile-disk fuzzing campaign (internal/diskfuzz): the
// durable-session and blob-cache stacks over an in-memory disk that injects
// ENOSPC, transient EIO, torn writes, lying fsyncs and digit-flipping power
// cuts, diffing every replay against a failure-free oracle. -skip-verify is
// the sabotage mode that proves the campaign catches what it claims.
//
// Exit status: 0 — clean; 1 — diskfuzz found silent corruption; 2 — usage
// or execution error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lightwsp/internal/cli"
	"lightwsp/internal/diskfuzz"
	"lightwsp/internal/experiments"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "scrub":
		os.Exit(runScrub(os.Args[2:]))
	case "diskfuzz":
		os.Exit(runDiskfuzz(os.Args[2:]))
	case "help", "-h", "-help", "--help":
		usage()
		os.Exit(0)
	default:
		fmt.Fprintf(os.Stderr, "unknown verb %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lightwsp-admin scrub -dir CACHEDIR | -sessions STOREDIR [-quota BYTES] [-json]
  lightwsp-admin diskfuzz [-seed N] [-rounds N] [-legs N] [-disk-faults PLAN]
      [-skip-verify] [-out DIR] [-json FILE] [-v]`)
}

// runScrub verifies, quarantines and garbage-collects one blob store.
func runScrub(args []string) int {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	var common cli.Common
	common.RegisterLogging(fs)
	var (
		dir      = fs.String("dir", "", "bare blob-cache directory to scrub (e.g. a result cache)")
		sessions = fs.String("sessions", "", "session store root to scrub (protects manifest-referenced snapshots)")
		quota    = fs.Int64("quota", 0, "size quota in bytes; unreferenced survivors are evicted oldest-first (0: unbounded)")
		asJSON   = fs.Bool("json", false, "print the report as JSON")
	)
	fs.Parse(args)
	if (*dir == "") == (*sessions == "") {
		fmt.Fprintln(os.Stderr, "scrub: exactly one of -dir or -sessions is required")
		return 2
	}
	log, err := common.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var rep experiments.ScrubReport
	target := *dir
	if *sessions != "" {
		target = *sessions
		st, err := experiments.OpenSessionStore(*sessions)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scrub: %v\n", err)
			return 2
		}
		defer st.Close()
		st.SetObserver(log, nil)
		rep, err = st.Scrub(*quota)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scrub: %v\n", err)
			return 2
		}
	} else {
		rep, err = experiments.ScrubStore(hostfs.Disk(), *dir, experiments.ScrubOptions{
			QuotaBytes: *quota,
			Log:        log,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "scrub: %v\n", err)
			return 2
		}
	}

	if *asJSON {
		b, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(b))
		return 0
	}
	t := &stats.Table{Title: "scrub " + target, Columns: []string{"metric", "value"}}
	t.Add("scanned", rep.Scanned)
	t.Add("kept", fmt.Sprintf("%d (%d bytes)", rep.Kept, rep.KeptBytes))
	t.Add("quarantined", rep.Quarantined)
	t.Add("removed stale", rep.RemovedStale)
	t.Add("removed unreferenced", rep.RemovedUnreferenced)
	t.Add("removed temp", rep.RemovedTemp)
	t.Add("removed for quota", rep.RemovedQuota)
	fmt.Println(t)
	return 0
}

// runDiskfuzz executes one hostile-disk campaign and reports its verdict.
func runDiskfuzz(args []string) int {
	fs := flag.NewFlagSet("diskfuzz", flag.ExitOnError)
	var faults cli.DiskFaults
	faults.Register(fs)
	var (
		rounds     = fs.Int("rounds", diskfuzz.DefaultRounds, "campaign rounds including the round-0 control")
		legs       = fs.Int("legs", diskfuzz.DefaultLegs, "crash/reopen cycles per round")
		skipVerify = fs.Bool("skip-verify", false, "disable checksum verification (sabotage mode: silent corruption becomes reachable)")
		outDir     = fs.String("out", "", "directory for manifest.json and violation repro files (empty: none written)")
		jsonPath   = fs.String("json", "", "also write the campaign manifest to this file as JSON")
		verbose    = fs.Bool("v", false, "print per-round progress lines")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "diskfuzz: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if _, err := faults.Plan(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg := diskfuzz.Config{
		Seed:       faults.Seed,
		Rounds:     *rounds,
		Legs:       *legs,
		PlanSpec:   faults.Spec,
		SkipVerify: *skipVerify,
		OutDir:     *outDir,
	}
	if *verbose {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	res, err := diskfuzz.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diskfuzz: %v\n", err)
		return 2
	}
	fmt.Println(res)
	if *jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "\t")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if res.SilentCorruptions > 0 {
		fmt.Fprintf(os.Stderr, "diskfuzz: %d silent corruption(s) — see %s\n", res.SilentCorruptions, *outDir)
		return 1
	}
	return 0
}
