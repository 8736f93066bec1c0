// Package lightwsp is a from-scratch reproduction of "LightWSP: Whole-System
// Persistence on the Cheap" (Zhou, Zeng, Jung — MICRO 2024): a
// compiler/architecture co-design that persists every store of a program —
// transparently, with DRAM usable as a last-level cache over non-volatile
// main memory — by partitioning execution into recoverable regions whose
// stores are quarantined in the memory controllers' battery-backed write
// pending queues and flushed failure-atomically, strictly in region order
// (lazy region-level persist ordering).
//
// The package is a façade over the full system:
//
//   - a register-machine IR and program builder (internal/isa),
//   - the LightWSP compiler — region partitioning, live-out register
//     checkpointing, speculative loop unrolling, checkpoint pruning
//     (internal/compiler),
//   - a deterministic cycle-stepped multicore simulator with the paper's
//     Table I configuration: persist paths, gated WPQs, DRAM cache, PM
//     (internal/machine and friends),
//   - power-failure injection and the §IV-F recovery protocol
//     (internal/recovery),
//   - the comparison schemes Capri, PPA, cWSP, ideal PSP
//     (internal/baseline),
//   - synthetic stand-ins for the paper's 38 evaluation applications
//     (internal/workload) and one experiment driver per figure/table
//     (internal/experiments).
//
// Quickstart:
//
//	b := lightwsp.NewProgramBuilder("hello")
//	b.Func("main")
//	b.MovImm(1, 0x1000)
//	b.MovImm(2, 42)
//	b.Store(1, 0, 2)
//	b.Halt()
//	prog, _ := b.Build()
//
//	rt, _ := lightwsp.Open(prog)
//	res, _ := rt.RunWithFailure(context.Background(), 500, 1_000_000) // cut power at cycle 500
//	fmt.Println(res.Recovered.PM().Read(0x1000)) // 42, recovered
//
// # API stability
//
// Open, its options, and the context-taking Runtime methods are the stable,
// documented entry points. A name leaving this façade is first marked
// Deprecated, naming its replacement, and removed a release later, so
// callers migrate incrementally; CI runs apidiff against the main branch, so
// any change to this façade's exported surface is flagged in review.
package lightwsp

import (
	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/isa"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
	"lightwsp/internal/metrics"
	"lightwsp/internal/probe"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
	"lightwsp/internal/wsperr"
)

// Typed sentinel errors every run failure wraps; classify with errors.Is.
var (
	// ErrCanceled: the run's context was canceled or its deadline expired.
	ErrCanceled = wsperr.ErrCanceled
	// ErrCyclesExceeded: the run did not complete within its cycle budget.
	ErrCyclesExceeded = wsperr.ErrCyclesExceeded
	// ErrWPQOverflow: the budget ran out while a memory controller was
	// wedged in the §IV-D deadlock-escape overflow state.
	ErrWPQOverflow = wsperr.ErrWPQOverflow
	// ErrUnrecoverable: the persisted image cannot be resumed from.
	ErrUnrecoverable = wsperr.ErrUnrecoverable
)

// Config is the machine configuration; DefaultConfig mirrors Table I of the
// paper (8 wide-issue cores at 2 GHz, 64 KB L1, 16 MB L2, 4 GB direct-mapped
// DRAM cache, 32 GB PM at 175/90 ns, two memory controllers with 64-entry
// 8-byte-granular WPQs, a 4 GB/s persist path per core).
type Config = machine.Config

// DefaultConfig returns the Table I system.
func DefaultConfig() Config { return machine.DefaultConfig() }

// CompilerConfig controls region partitioning; the zero value uses the
// paper's defaults (store threshold = half the WPQ, 4x loop unrolling).
type CompilerConfig = compiler.Config

// CompileResult is a compiled program plus its recovery metadata (checkpoint
// pruning recipes) and static statistics.
type CompileResult = compiler.Result

// Program is a register-machine program; see Builder for construction.
type Program = isa.Program

// Builder assembles Programs instruction by instruction.
type Builder = isa.Builder

// NewProgramBuilder returns an empty program builder.
func NewProgramBuilder(name string) *Builder { return isa.NewBuilder(name) }

// Runtime binds a compiled program to a machine configuration and drives
// runs, power failures and recoveries.
type Runtime = core.Runtime

// CrashResult reports a crash/recover round trip.
type CrashResult = core.CrashResult

// System is a booted machine instance.
type System = machine.System

// Stats are one run's measurements.
type Stats = machine.Stats

// Scheme describes a persistence mechanism's hardware behaviour.
type Scheme = machine.Scheme

// Image is a sparse memory image (the persisted PM state).
type Image = mem.Image

// ProbeEvent is one cycle-level instrumentation event.
type ProbeEvent = probe.Event

// ProbeSink consumes cycle-level instrumentation events. Sinks are driven
// from the single simulation goroutine and need not be concurrency-safe.
type ProbeSink = probe.Sink

// ProbeSinkFunc adapts a function to ProbeSink.
type ProbeSinkFunc = probe.SinkFunc

// MultiProbeSink fans events out to several sinks, dropping nils.
func MultiProbeSink(sinks ...ProbeSink) ProbeSink { return probe.Multi(sinks...) }

// Metrics aggregates a run's probe events into the counters and histograms
// the evaluation cares about; it implements ProbeSink.
type Metrics = metrics.Metrics

// NewMetrics returns an empty metrics accumulator.
func NewMetrics() *Metrics { return metrics.New() }

// Option configures Open.
type Option func(*openOptions)

type openOptions struct {
	cfg    Config
	ccfg   CompilerConfig
	sch    Scheme
	sinks  []ProbeSink
	hasCfg bool
}

// WithConfig sets the machine configuration (default: DefaultConfig, the
// paper's Table I system).
func WithConfig(cfg Config) Option {
	return func(o *openOptions) { o.cfg = cfg; o.hasCfg = true }
}

// WithCompiler sets the region compiler configuration. The zero value — and
// omitting this option — uses the paper's defaults (store threshold = half
// the WPQ, 4x loop unrolling).
func WithCompiler(ccfg CompilerConfig) Option {
	return func(o *openOptions) { o.ccfg = ccfg }
}

// WithScheme selects the persistence scheme (default: LightWSPScheme).
// Instrumented schemes run prog through the region compiler; uninstrumented
// comparison schemes (BaselineScheme, PSPIdealScheme, ...) run it as built
// and cannot recover from failures.
func WithScheme(sch Scheme) Option {
	return func(o *openOptions) { o.sch = sch }
}

// WithProbeSink attaches a cycle-level instrumentation sink to every system
// the runtime boots. Repeated options (and WithMetrics) compose: each sink
// receives every event.
func WithProbeSink(s ProbeSink) Option {
	return func(o *openOptions) { o.sinks = append(o.sinks, s) }
}

// WithMetrics attaches a metrics accumulator to every system the runtime
// boots — shorthand for WithProbeSink(m).
func WithMetrics(m *Metrics) Option {
	return func(o *openOptions) { o.sinks = append(o.sinks, m) }
}

// Open binds prog to a machine configuration and persistence scheme and
// returns the Runtime that drives runs, power failures and recoveries. With
// no options it opens the paper's system: Table I hardware, LightWSP scheme,
// default compiler. Open is the package's entry point; see Option for the
// available knobs.
func Open(prog *Program, opts ...Option) (*Runtime, error) {
	o := openOptions{sch: core.Scheme()}
	for _, opt := range opts {
		opt(&o)
	}
	if !o.hasCfg {
		o.cfg = DefaultConfig()
	}
	return core.NewRuntimeFor(prog, o.ccfg, o.cfg, o.sch, probe.Multi(o.sinks...))
}

// Compile runs only the LightWSP compiler (region partitioning +
// checkpointing) without building a machine. A zero StoreThreshold resolves
// for DefaultConfig's WPQ, as Open's does for its machine.
func Compile(prog *Program, ccfg CompilerConfig) (*CompileResult, error) {
	return compiler.Compile(prog, ccfg.Resolve(DefaultConfig().WPQEntries))
}

// LightWSPScheme returns the paper's scheme: 8-byte persist path, gated
// WPQ with lazy region-level persist ordering, DRAM cache enabled.
func LightWSPScheme() Scheme { return core.Scheme() }

// Comparison schemes from the paper's evaluation (§V).
var (
	// BaselineScheme is Optane memory mode: DRAM cache, no persistence.
	BaselineScheme = baseline.Baseline
	// CapriScheme is Capri [53]: 64-byte persist path, stop-at-boundary
	// multi-controller ordering.
	CapriScheme = baseline.Capri
	// PPAScheme is PPA [108]: hardware regions with eager write-back and
	// boundary stalls.
	PPAScheme = baseline.PPA
	// CWSPScheme is cWSP [110]: idempotent regions with memory-controller
	// speculation and in-line undo logging.
	CWSPScheme = baseline.CWSP
	// PSPIdealScheme is an idealized partial-system persistence (no DRAM
	// cache, free persistence).
	PSPIdealScheme = baseline.PSPIdeal
	// NaiveSfenceScheme is LightWSP without LRPO (sfence per region).
	NaiveSfenceScheme = baseline.NaiveSfence
)

// VerifyEquivalence checks that two final persisted images agree on all
// program data — the crash-consistency acceptance test.
func VerifyEquivalence(got, want *Image) error {
	return recovery.VerifyEquivalence(got, want)
}

// WorkloadProfile describes one synthetic stand-in for a paper benchmark.
type WorkloadProfile = workload.Profile

// Workloads returns the 38-application evaluation set of Figure 7.
func Workloads() []WorkloadProfile { return workload.Profiles() }

// BuildWorkload synthesizes a profile's program deterministically.
func BuildWorkload(p WorkloadProfile) (*Program, error) { return workload.Build(p) }

// Store is the content-addressed blob-store seam the run cache, durable
// sessions and the serving fleet all plug into: ReadJSON/WriteJSON move
// CRC-sealed documents by name, Remove deletes them. Implementations are
// composable — a disk store is one node's L1, another node (or a shared
// directory) is the fleet's L2, and a tiered store stacks the two with
// read-through and write-back. Every fetch re-verifies the seal, so a
// corrupt or truncated entry reads as a miss, never as wrong data.
type Store = experiments.Store

// NewDiskStore opens the disk-backed Store rooted at dir: one CRC-sealed,
// content-addressed file per entry, corrupt entries quarantined on read.
func NewDiskStore(dir string) Store { return experiments.NewBlobCache(dir) }

// NewTieredStore stacks two stores: reads try l1 then fall through to l2
// (promoting hits into l1), writes go to both. This is the fleet cache
// shape — local disk in front, a shared backend behind.
func NewTieredStore(l1, l2 Store) Store { return experiments.NewTieredStore(l1, l2) }

// NewRemoteStore returns a Store backed by another lightwsp-serve node's
// blob API at baseURL. Entries travel sealed and are re-verified locally
// on every fetch; a failed or corrupt transfer reads as a miss.
func NewRemoteStore(baseURL string) Store { return experiments.NewRemoteStore(baseURL) }

// Durable sessions: long-lived runs that survive power loss and process
// restarts. A SessionStore owns a directory of sessions; each session
// journals every advance before executing it and periodically snapshots the
// machine (a planned §IV-F power failure whose drained image is
// content-addressed into the store), so reopening the store replays the
// recovery protocol and restores every session to its exact last position —
// the event stream a resumed client sees is byte-identical to an
// uninterrupted run's. lightwsp-serve exposes the same machinery over HTTP
// at /v1/session.
type (
	// SessionStore owns a directory of durable sessions.
	SessionStore = experiments.SessionStore
	// Session is one durable run; see Advance, Resume, ForceSnapshot.
	Session = experiments.Session
	// SessionSpec declares a session's workload, scheme and snapshot cadence.
	SessionSpec = experiments.SessionSpec
	// SessionEvent is one line of a session's milestone event stream.
	SessionEvent = experiments.SessionEvent
	// SessionStatus is a point-in-time session summary.
	SessionStatus = experiments.SessionStatus
)

// Session sentinel errors; classify with errors.Is.
var (
	// ErrSessionBusy: another operation holds the session; retry later.
	ErrSessionBusy = experiments.ErrSessionBusy
	// ErrSessionExists: a session with that ID already exists.
	ErrSessionExists = experiments.ErrSessionExists
	// ErrNoSession: no session with that ID.
	ErrNoSession = experiments.ErrNoSession
	// ErrSessionClosed: the session handle was closed or removed.
	ErrSessionClosed = experiments.ErrSessionClosed
)

// SessionOption configures OpenSessionStore.
type SessionOption func(*sessionOptions)

type sessionOptions struct {
	l2 Store
}

// WithStore attaches a shared second-tier Store to the session store:
// snapshots still land on the local directory first, then publish to st,
// and a session restoring here can fetch snapshot blobs a fleet peer
// produced — what lets a session resume on a different node than the one
// that advanced it.
func WithStore(st Store) SessionOption {
	return func(o *sessionOptions) { o.l2 = st }
}

// OpenSessionStore opens (creating if needed) the durable-session store
// rooted at dir. Reopening a store after a crash or restart restores every
// session it contains from its newest durable snapshot plus journal replay.
func OpenSessionStore(dir string, opts ...SessionOption) (*SessionStore, error) {
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	st, err := experiments.OpenSessionStore(dir)
	if err != nil {
		return nil, err
	}
	if o.l2 != nil {
		st.SetL2(o.l2)
	}
	return st, nil
}
