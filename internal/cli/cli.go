// Package cli holds the flag and environment plumbing every lightwsp command
// shares: worker-pool sizing (-j), the persistent result cache (-cache),
// verbosity (-v), the persist-fabric fault plan (-faults/-fault-seed) and
// structured logging (-log-level/-log-format).
// Before this package each binary re-declared the same five flags with
// subtly different defaults; now the flags, their env-var fallbacks and the
// construction of the configured Runner/Pool/BlobCache live in one place,
// and lightwsp-serve reuses the identical knobs for its daemon — plus the
// Sessions group (-session-dir/-snapshot-every/-snapshot-interval) for its
// durable-session store.
package cli

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lightwsp/internal/experiments"
	"lightwsp/internal/faults"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/obs"
)

// Environment fallbacks for the shared flags: each flag's default comes from
// its variable when set, so CI lanes and containers configure the tools
// without threading flags through every invocation.
const (
	// WorkersEnv overrides the default worker-pool size (-j).
	WorkersEnv = "LIGHTWSP_WORKERS"
	// CacheDirEnv supplies the default persistent result-cache directory
	// (-cache). The flag is its only reader: a Runner built in code has no
	// cache until one is set on it.
	CacheDirEnv = "LIGHTWSP_CACHE_DIR"
	// VerboseEnv, when non-empty, turns on progress lines (-v).
	VerboseEnv = "LIGHTWSP_VERBOSE"
	// FaultsEnv supplies a default persist-fabric fault plan (-faults).
	FaultsEnv = "LIGHTWSP_FAULTS"
	// FaultSeedEnv supplies the default fault-plan seed (-fault-seed).
	FaultSeedEnv = "LIGHTWSP_FAULT_SEED"
	// LogLevelEnv supplies the default structured-log level (-log-level).
	LogLevelEnv = "LIGHTWSP_LOG_LEVEL"
	// LogFormatEnv supplies the default structured-log format (-log-format).
	LogFormatEnv = "LIGHTWSP_LOG_FORMAT"
	// SessionDirEnv supplies the default durable-session store (-session-dir).
	SessionDirEnv = "LIGHTWSP_SESSION_DIR"
	// SnapshotEveryEnv supplies the default session snapshot cadence in
	// cycles (-snapshot-every).
	SnapshotEveryEnv = "LIGHTWSP_SNAPSHOT_EVERY"
	// SnapshotIntervalEnv supplies the default wall-clock forced-snapshot
	// period (-snapshot-interval), in time.ParseDuration syntax.
	SnapshotIntervalEnv = "LIGHTWSP_SNAPSHOT_INTERVAL"
	// DiskFaultsEnv supplies a default host-storage fault plan
	// (-disk-faults).
	DiskFaultsEnv = "LIGHTWSP_DISK_FAULTS"
	// DiskFaultSeedEnv supplies the default host-storage campaign seed
	// (-seed).
	DiskFaultSeedEnv = "LIGHTWSP_DISK_FAULT_SEED"
	// FleetSelfEnv supplies this node's own base URL (-fleet-self).
	FleetSelfEnv = "LIGHTWSP_FLEET_SELF"
	// FleetPeersEnv supplies the comma-separated fleet membership
	// (-fleet-peers).
	FleetPeersEnv = "LIGHTWSP_FLEET_PEERS"
	// L2Env supplies the shared second storage tier (-l2): a directory
	// path or a peer node's http(s) base URL.
	L2Env = "LIGHTWSP_L2"
)

// Common is the resolved shared configuration. Zero value + Register +
// fs.Parse yields a fully resolved config; the accessors below construct the
// configured building blocks.
type Common struct {
	// Workers sizes every worker pool (default: $LIGHTWSP_WORKERS, else
	// GOMAXPROCS).
	Workers int
	// CacheDir roots the persistent result/verdict cache; empty disables
	// (default: $LIGHTWSP_CACHE_DIR).
	CacheDir string
	// Verbose enables progress lines on stderr.
	Verbose bool
	// FaultSpec is the -faults plan text; empty or "none" means a perfect
	// fabric.
	FaultSpec string
	// FaultSeed seeds the fault plan's hashed decisions.
	FaultSeed int64
	// LogLevel is the structured-log threshold: debug, info, warn or error.
	LogLevel string
	// LogFormat selects slog output encoding: "text" or "json".
	LogFormat string
}

// Register installs the shared flags on fs with their environment-derived
// defaults.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "j", envInt(WorkersEnv, runtime.GOMAXPROCS(0)),
		"simulation worker-pool size (default $"+WorkersEnv+" or GOMAXPROCS)")
	fs.StringVar(&c.CacheDir, "cache", os.Getenv(CacheDirEnv),
		"persistent result-cache directory (empty disables; defaults to $"+CacheDirEnv+")")
	fs.BoolVar(&c.Verbose, "v", os.Getenv(VerboseEnv) != "",
		"print progress lines (default set when $"+VerboseEnv+" is non-empty)")
	fs.StringVar(&c.FaultSpec, "faults", os.Getenv(FaultsEnv),
		"persist-fabric fault plan, e.g. \"drop=10,dup=5,delay=20:48,reorder=5,stuck=1@100+500\" "+
			"(empty/none: perfect fabric; defaults to $"+FaultsEnv+")")
	fs.Int64Var(&c.FaultSeed, "fault-seed", envInt64(FaultSeedEnv, 1),
		"seed for the fault plan's hashed decisions (default $"+FaultSeedEnv+" or 1)")
	c.RegisterLogging(fs)
}

// RegisterLogging installs just the structured-logging flags — for binaries
// (lightwsp, lightwsp-regions) that want -log-level/-log-format without the
// pool/cache/fault knobs. Register calls it, so most binaries get both.
func (c *Common) RegisterLogging(fs *flag.FlagSet) {
	fs.StringVar(&c.LogLevel, "log-level", envOr(LogLevelEnv, "info"),
		"structured-log level: debug, info, warn, error (default $"+LogLevelEnv+" or info)")
	fs.StringVar(&c.LogFormat, "log-format", envOr(LogFormatEnv, "text"),
		"structured-log format: text or json (default $"+LogFormatEnv+" or text)")
}

// Logger builds the stderr slog.Logger the flags describe.
func (c *Common) Logger() (*slog.Logger, error) {
	return obs.NewLogger(os.Stderr, c.LogLevel, c.LogFormat)
}

// Plan parses and seeds the fault plan.
func (c *Common) Plan() (faults.Plan, error) {
	plan, err := faults.ParsePlan(c.FaultSpec)
	if err != nil {
		return faults.Plan{}, err
	}
	plan.Seed = c.FaultSeed
	return plan, nil
}

// Progress returns the stderr progress callback, or nil unless Verbose.
func (c *Common) Progress() func(string) {
	if !c.Verbose {
		return nil
	}
	return func(s string) { fmt.Fprintln(os.Stderr, s) }
}

// NewPool returns a worker pool of the configured size.
func (c *Common) NewPool() *experiments.Pool { return experiments.NewPool(c.Workers) }

// NewRunner returns a Runner configured with the shared knobs: pool size,
// cache directory, progress callback.
func (c *Common) NewRunner() *experiments.Runner {
	r := experiments.NewRunner()
	r.SetWorkers(c.Workers)
	r.SetCacheDir(c.CacheDir)
	r.SetProgress(c.Progress())
	return r
}

// BlobCache returns the shared blob store rooted at CacheDir, or nil when
// caching is disabled. The return type is the Store interface (with an
// untyped nil) so callers' `!= nil` guards keep working when they hold the
// result in an interface-typed config field.
func (c *Common) BlobCache() experiments.Store {
	if c.CacheDir == "" {
		return nil
	}
	return experiments.NewBlobCache(c.CacheDir)
}

// Sessions is the durable-session flag group (lightwsp-serve only): where
// the session store lives and how often the server snapshots. Zero value +
// Register + fs.Parse resolves it; an empty Dir leaves sessions disabled.
type Sessions struct {
	// Dir roots the session store (journals + snapshot blobs); empty
	// disables the /v1/session endpoints (default: $LIGHTWSP_SESSION_DIR).
	Dir string
	// SnapshotEvery is the default snapshot cadence in session-total cycles
	// for sessions created without one; 0 leaves cadence to each session's
	// spec (default: $LIGHTWSP_SNAPSHOT_EVERY).
	SnapshotEvery uint64
	// SnapshotInterval, when positive, forces a durable snapshot of every
	// idle session on this wall-clock period
	// (default: $LIGHTWSP_SNAPSHOT_INTERVAL).
	SnapshotInterval time.Duration
}

// Register installs the session flags on fs with their environment-derived
// defaults.
func (s *Sessions) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Dir, "session-dir", os.Getenv(SessionDirEnv),
		"durable-session store directory; sessions survive restarts and power loss "+
			"(empty disables /v1/session; defaults to $"+SessionDirEnv+")")
	fs.Uint64Var(&s.SnapshotEvery, "snapshot-every", envUint64(SnapshotEveryEnv, 0),
		"default session snapshot cadence in cycles, for sessions that do not set one "+
			"(0: per-session spec only; defaults to $"+SnapshotEveryEnv+")")
	fs.DurationVar(&s.SnapshotInterval, "snapshot-interval", envDuration(SnapshotIntervalEnv, 0),
		"force a durable snapshot of idle sessions this often, e.g. 30s "+
			"(0 disables; defaults to $"+SnapshotIntervalEnv+")")
}

// Fleet is the fleet flag group (lightwsp-serve only): this node's identity
// on the rendezvous ring, the full membership, and the shared L2 store
// behind the local cache. Zero value + Register + fs.Parse resolves it; an
// empty Self leaves the node solo.
type Fleet struct {
	// Self is this node's base URL exactly as peers and the lb reach it,
	// e.g. "http://10.0.0.3:8080" (default: $LIGHTWSP_FLEET_SELF).
	Self string
	// Peers is the comma-separated fleet membership, Self included
	// (default: $LIGHTWSP_FLEET_PEERS).
	Peers string
	// L2 names the shared second storage tier: a directory path (shared
	// filesystem) or a peer node's http(s) base URL (its /v1/blob peer
	// API). Empty leaves the node on its local cache alone
	// (default: $LIGHTWSP_L2).
	L2 string
}

// Register installs the fleet flags on fs with their environment-derived
// defaults.
func (f *Fleet) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Self, "fleet-self", os.Getenv(FleetSelfEnv),
		"this node's base URL as peers reach it, e.g. http://10.0.0.3:8080 "+
			"(empty: serve solo; defaults to $"+FleetSelfEnv+")")
	fs.StringVar(&f.Peers, "fleet-peers", os.Getenv(FleetPeersEnv),
		"comma-separated fleet membership including -fleet-self "+
			"(defaults to $"+FleetPeersEnv+")")
	fs.StringVar(&f.L2, "l2", os.Getenv(L2Env),
		"shared L2 store: a directory on a shared filesystem, or a peer's "+
			"http(s) base URL (defaults to $"+L2Env+")")
}

// PeerList parses the membership, dropping empty entries.
func (f *Fleet) PeerList() []string {
	var out []string
	for _, p := range strings.Split(f.Peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Store resolves the -l2 spec: an http(s) URL speaks a peer node's blob
// API, anything else is a shared directory; empty means no L2.
func (f *Fleet) Store() experiments.Store {
	switch {
	case f.L2 == "":
		return nil
	case strings.HasPrefix(f.L2, "http://"), strings.HasPrefix(f.L2, "https://"):
		return experiments.NewRemoteStore(f.L2)
	default:
		return experiments.NewBlobCache(f.L2)
	}
}

// DiskFaults is the host-storage fault-plan flag group (lightwsp-admin's
// diskfuzz verb): the hostfs plan grammar plus the campaign seed. It is
// deliberately distinct from the -faults persist-fabric group — one breaks
// the simulated machine's fabric, the other breaks the host disk under the
// durable layer.
type DiskFaults struct {
	// Spec is the -disk-faults plan text (hostfs.ParsePlan grammar); empty
	// or "none" leaves plan selection to the campaign's rotating presets.
	Spec string
	// Seed drives the campaign's hashed fault decisions.
	Seed int64
}

// Register installs the disk-fault flags on fs with their
// environment-derived defaults.
func (d *DiskFaults) Register(fs *flag.FlagSet) {
	fs.StringVar(&d.Spec, "disk-faults", os.Getenv(DiskFaultsEnv),
		"host-storage fault plan, e.g. \"enospc=5,eio=5,torn=30,fsynclie=20,flip=10\" "+
			"(empty/none: rotate built-in presets; defaults to $"+DiskFaultsEnv+")")
	fs.Int64Var(&d.Seed, "seed", envInt64(DiskFaultSeedEnv, 1),
		"campaign seed; the same seed replays the same faults (default $"+DiskFaultSeedEnv+" or 1)")
}

// Plan parses and seeds the host-storage fault plan.
func (d *DiskFaults) Plan() (hostfs.Plan, error) {
	p, err := hostfs.ParsePlan(d.Spec)
	if err != nil {
		return hostfs.Plan{}, err
	}
	p.Seed = d.Seed
	return p, nil
}

func envOr(name, def string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return def
}

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func envInt64(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func envUint64(name string, def uint64) uint64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func envDuration(name string, def time.Duration) time.Duration {
	if v := os.Getenv(name); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d >= 0 {
			return d
		}
	}
	return def
}
