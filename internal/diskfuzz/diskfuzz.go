// Package diskfuzz is the hostile-disk counterpart of internal/crashfuzz:
// it validates the durable layer's storage claim — every persisted artifact
// is either correct or loudly quarantined, never silently wrong — by running
// the session and blob-cache stacks over an in-memory filesystem
// (internal/hostfs.MemFS) that injects the faults real disks commit: ENOSPC,
// transient EIO, torn writes, firmware fsync lies, and power cuts that keep,
// tear, or digit-flip acknowledged-but-unsynced bytes.
//
// A campaign first runs the workload once on a perfect in-memory disk to
// produce an oracle stream (the exact NDJSON lines an uninterrupted session
// emits). Round 0 is the control: power cuts on an honest disk, which must
// reproduce the oracle byte-for-byte — anything else is a harness bug, not a
// finding. Later rounds rotate fault-plan emphases (disk-full, torn-write,
// lying-firmware), each round interleaving advances with crashes, then
// re-reading everything back over the bare crashed image. The verdict is a
// byte-prefix check: the replayed stream may be short (detected failure,
// lost tail — the disk was hostile) but may never diverge from the oracle.
// A divergence is a silent-corruption violation, the one outcome the
// integrity layer exists to make impossible. The campaign's own sabotage
// hook — SkipVerify, which disables checksum verification end to end — is
// how the harness's tests prove the violations it reports are real: the
// same seed that is clean with verification on must produce violations with
// it off.
//
// Everything is deterministic in the seed (fault decisions are hashed, the
// workload is a simulator): the same Config replays the same campaign,
// which makes every violation its own reproducer.
package diskfuzz

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"lightwsp/internal/experiments"
	"lightwsp/internal/hostfs"
	"lightwsp/internal/stats"
)

// SchemaVersion stamps campaign manifests and violation files.
const SchemaVersion = 1

// Defaults for zero-valued Config knobs.
const (
	// DefaultRounds is the campaign length including the round-0 control.
	DefaultRounds = 4
	// DefaultLegs is how many crash/reopen cycles each round's session leg
	// performs.
	DefaultLegs = 3
	// blobsPerRound sizes each round's blob-cache leg.
	blobsPerRound = 6
)

// defaultTargets is the advance ladder, chosen to straddle the 600-cycle
// snapshot cadence and run the fuzz-st workload to completion (~2.4k
// cycles).
var defaultTargets = []uint64{700, 1400, 10_000}

// planPresets are the fault-plan emphases faulted rounds rotate through:
// a filling disk, a tearing disk, and lying firmware whose crashes flip
// digits (corruption that still parses — exactly what checksums exist
// for).
var planPresets = []string{
	"enospc=6,eio=4,short=2,slow=2:1",
	"short=6,eio=3,torn=45,keep=25,fsynclie=10",
	"fsynclie=35,flip=45,keep=25,eio=1",
}

// Config describes one campaign.
type Config struct {
	// Seed drives every fault decision; the same seed replays the same
	// campaign.
	Seed int64
	// Rounds is the campaign length including the round-0 control
	// (zero = DefaultRounds).
	Rounds int
	// Legs is the number of crash/reopen cycles per round (zero =
	// DefaultLegs).
	Legs int
	// PlanSpec, when non-empty, replaces the rotating presets for every
	// faulted round (ParsePlan grammar). The control round stays fault-free.
	PlanSpec string
	// SkipVerify disables checksum verification across the whole stack —
	// the sabotage hatch the harness's own tests use to prove the campaign
	// catches what it claims.
	SkipVerify bool
	// OutDir, when non-empty, receives manifest.json plus one
	// violation-NN.json per silent-corruption finding.
	OutDir string
	// Progress, if non-nil, receives occasional human-readable lines.
	Progress func(string)
}

// Violation is one silent-corruption finding: a replayed artifact that
// decoded cleanly but disagreed with the failure-free oracle. The campaign
// seed plus the round replays it.
type Violation struct {
	SchemaVersion int    `json:"schema_version"`
	Seed          int64  `json:"seed"`
	Round         int    `json:"round"`
	Leg           string `json:"leg"` // "session" or "blobs"
	Plan          string `json:"plan"`
	Detail        string `json:"detail"`
	Line          int    `json:"line,omitempty"`
	Got           string `json:"got,omitempty"`
	Want          string `json:"want,omitempty"`
}

// Result is one campaign's manifest.
type Result struct {
	SchemaVersion int      `json:"schema_version"`
	Seed          int64    `json:"seed"`
	Rounds        int      `json:"rounds"`
	Legs          int      `json:"legs"`
	SkipVerify    bool     `json:"skip_verify,omitempty"`
	Plans         []string `json:"plans"`
	// OracleLines is the length of the failure-free reference stream.
	OracleLines int `json:"oracle_lines"`
	// Advances counts session advance calls; Crashes counts power cuts;
	// FsyncLies counts syncs the simulated firmware acknowledged without
	// persisting.
	Advances  int    `json:"advances"`
	Crashes   uint64 `json:"crashes"`
	FsyncLies uint64 `json:"fsync_lies"`
	// DetectedFailures counts operations that failed loudly — the
	// acceptable outcome under a hostile disk.
	DetectedFailures int `json:"detected_failures"`
	// Storage is the campaign-wide integrity counter snapshot
	// (quarantines, checksum failures, journal truncations, retries).
	Storage experiments.StorageSnapshot `json:"storage"`
	// ScrubQuarantined and ScrubRemoved total the verdict-time scrub
	// passes, which must never break restorability.
	ScrubQuarantined int `json:"scrub_quarantined"`
	ScrubRemoved     int `json:"scrub_removed"`
	// SilentCorruptions is the verdict: nonzero means the store served
	// wrong bytes as right ones.
	SilentCorruptions int         `json:"silent_corruptions"`
	Violations        []Violation `json:"violations,omitempty"`
	WallSeconds       float64     `json:"wall_seconds"`
}

// String renders the campaign summary as a table.
func (r *Result) String() string {
	t := &stats.Table{
		Title:   fmt.Sprintf("diskfuzz seed %d", r.Seed),
		Columns: []string{"metric", "value"},
	}
	mode := "verify on"
	if r.SkipVerify {
		mode = "verify OFF (sabotage)"
	}
	t.Add("mode", fmt.Sprintf("%d rounds × %d legs, %s", r.Rounds, r.Legs, mode))
	t.Add("oracle", fmt.Sprintf("%d lines", r.OracleLines))
	t.Add("advances", r.Advances)
	t.Add("crashes", r.Crashes)
	t.Add("fsync lies", r.FsyncLies)
	t.Add("detected failures", r.DetectedFailures)
	t.Add("quarantined", r.Storage.Quarantined)
	t.Add("checksum failures", r.Storage.ChecksumFailures)
	t.Add("journal truncations", r.Storage.JournalTruncations)
	t.Add("scrub removed", fmt.Sprintf("%d (+%d quarantined)", r.ScrubRemoved, r.ScrubQuarantined))
	t.Add("silent corruptions", r.SilentCorruptions)
	return t.String()
}

// campaign carries the state one Run shares across rounds.
type campaign struct {
	cfg      Config
	ctx      context.Context
	spec     experiments.SessionSpec
	targets  []uint64
	oracle   []string
	counters *experiments.StorageCounters
	res      *Result
}

// Run executes one campaign. Harness-level failures (the control round
// diverging, an unwritable OutDir) are errors; silent corruptions are
// results, not errors.
func Run(cfg Config) (*Result, error) {
	start := time.Now()
	if cfg.Rounds <= 0 {
		cfg.Rounds = DefaultRounds
	}
	if cfg.Legs <= 0 {
		cfg.Legs = DefaultLegs
	}
	if cfg.PlanSpec != "" {
		if _, err := hostfs.ParsePlan(cfg.PlanSpec); err != nil {
			return nil, fmt.Errorf("diskfuzz: %w", err)
		}
	}
	c := &campaign{
		cfg: cfg,
		ctx: context.Background(),
		spec: experiments.SessionSpec{
			Suite: "cpu2006", App: "fuzz-st", Scheme: "lightwsp", SnapshotEvery: 600,
		},
		targets:  defaultTargets,
		counters: &experiments.StorageCounters{},
		res: &Result{
			SchemaVersion: SchemaVersion, Seed: cfg.Seed,
			Rounds: cfg.Rounds, Legs: cfg.Legs, SkipVerify: cfg.SkipVerify,
		},
	}
	oracle, err := buildOracle(c.spec, c.targets)
	if err != nil {
		return nil, err
	}
	c.oracle = oracle
	c.res.OracleLines = len(oracle)

	for round := 0; round < cfg.Rounds; round++ {
		plan := c.plan(round)
		c.res.Plans = append(c.res.Plans, plan.String())
		if err := c.sessionLeg(round, plan); err != nil {
			return nil, err
		}
		if err := c.blobLeg(round, plan); err != nil {
			return nil, err
		}
		if round == 0 && (c.res.DetectedFailures != 0 || len(c.res.Violations) != 0) {
			return nil, fmt.Errorf("diskfuzz: control round (power cuts on an honest disk) failed: %d detected failures, %d violations — harness bug",
				c.res.DetectedFailures, len(c.res.Violations))
		}
		c.progress(fmt.Sprintf("diskfuzz seed %d round %d (%s): %d advances, %d crashes, %d detected, %d silent",
			cfg.Seed, round, plan.String(), c.res.Advances, c.res.Crashes,
			c.res.DetectedFailures, len(c.res.Violations)))
	}
	c.res.SilentCorruptions = len(c.res.Violations)
	c.res.Storage = c.counters.Snapshot()
	c.res.WallSeconds = time.Since(start).Seconds()
	if err := writeArtifacts(cfg.OutDir, c.res); err != nil {
		return nil, err
	}
	return c.res, nil
}

// plan resolves one round's fault plan. Round 0 is the control: no
// operation faults, no crash-survival hazards — power cuts only.
func (c *campaign) plan(round int) hostfs.Plan {
	p := hostfs.Plan{Seed: roundSeed(c.cfg.Seed, round)}
	if round == 0 {
		return p
	}
	spec := c.cfg.PlanSpec
	if spec == "" {
		spec = planPresets[(round-1)%len(planPresets)]
	}
	parsed, _ := hostfs.ParsePlan(spec) // validated in Run
	parsed.Seed = p.Seed
	return parsed
}

// sessionLeg drives the durable-session stack over a faulted disk: Legs
// iterations of open → advance the full ladder → power cut, then a verdict
// pass (scrub + resume) over the bare crashed image.
func (c *campaign) sessionLeg(round int, plan hostfs.Plan) error {
	mem := hostfs.NewMem(plan)
	fsys := hostfs.Inject(mem, plan)
	const dir = "sessions"
	discard := func(experiments.SessionEvent) error { return nil }
	for leg := 0; leg < c.cfg.Legs; leg++ {
		st, err := experiments.OpenSessionStoreFS(dir, fsys)
		if err != nil {
			c.res.DetectedFailures++
			mem.Crash()
			continue
		}
		c.observe(st)
		s, err := st.Open(c.ctx, "fuzz")
		if errors.Is(err, experiments.ErrNoSession) {
			s, err = st.Create("fuzz", c.spec)
		}
		if err != nil {
			c.res.DetectedFailures++
		} else {
			// Always re-issue the full ladder: already-satisfied targets are
			// silent no-ops, so the journal's record sequence stays canonical
			// however far a crash rewound it. A failed advance ends the leg —
			// skipping ahead to a later target would journal a different
			// (legal) cadence split than the oracle's request schedule, and
			// the prefix verdict only holds for identical request schedules.
			for _, target := range c.targets {
				c.res.Advances++
				if err := s.Advance(c.ctx, target, discard, nil); err != nil {
					c.res.DetectedFailures++
					break
				}
			}
		}
		st.Close()
		mem.Crash()
	}
	err := c.sessionVerdict(round, plan, mem, dir)
	c.res.Crashes += mem.Crashes()
	c.res.FsyncLies += mem.Lies()
	return err
}

// sessionVerdict re-reads the crashed image over the bare MemFS (no
// operation faults — the disk has calmed down; what is on it is the
// question) and diffs the replayed stream against the oracle.
func (c *campaign) sessionVerdict(round int, plan hostfs.Plan, mem *hostfs.MemFS, dir string) error {
	strict := round == 0
	st, err := experiments.OpenSessionStoreFS(dir, mem)
	if err != nil {
		if strict {
			return fmt.Errorf("diskfuzz: control verdict open: %v", err)
		}
		c.res.DetectedFailures++
		return nil
	}
	defer st.Close()
	c.observe(st)
	// Scrub before reading back: self-healing must never break
	// restorability.
	if rep, err := st.Scrub(0); err != nil {
		if strict {
			return fmt.Errorf("diskfuzz: control scrub: %v", err)
		}
		c.res.DetectedFailures++
	} else {
		c.res.ScrubQuarantined += rep.Quarantined
		c.res.ScrubRemoved += rep.Removed()
	}
	s, err := st.Open(c.ctx, "fuzz")
	if errors.Is(err, experiments.ErrNoSession) {
		if strict {
			return errors.New("diskfuzz: control round lost the session on an honest disk")
		}
		return nil // total loss is loud, not silent
	}
	if err != nil {
		if strict {
			return fmt.Errorf("diskfuzz: control verdict reopen: %v", err)
		}
		c.res.DetectedFailures++
		return nil
	}
	var got []string
	if err := s.Resume(c.ctx, 0, collectLines(&got), nil); err != nil {
		if strict {
			return fmt.Errorf("diskfuzz: control resume: %v", err)
		}
		c.res.DetectedFailures++ // a loud replay failure; prefix-check what it emitted
	}
	c.checkPrefix(round, "session", plan, got)
	if strict && len(got) != len(c.oracle) {
		return fmt.Errorf("diskfuzz: control replay produced %d of %d oracle lines", len(got), len(c.oracle))
	}
	return nil
}

// blobLeg drives the blob-cache stack (the Runner's disk result cache)
// under the same plan on a fresh disk: store digit-rich payloads with
// crashes interleaved, then re-read over the bare image. Every load must be
// a miss or deep-equal to what was stored.
func (c *campaign) blobLeg(round int, plan hostfs.Plan) error {
	bplan := plan
	bplan.Seed = roundSeed(plan.Seed, 0x6b) // decorrelate from the session leg
	mem := hostfs.NewMem(bplan)
	const dir = "blobs"
	cache := experiments.NewBlobCacheFS(dir, hostfs.Inject(mem, bplan))
	cache.SetObserver(nil, c.counters)
	cache.SetInsecureSkipVerify(c.cfg.SkipVerify)
	for i := 0; i < blobsPerRound; i++ {
		key, hash := blobKey(round, i)
		experiments.RunCodec.Store(cache, hash, key, blobPayload(c.cfg.Seed, round, i))
		if i%2 == 1 {
			mem.Crash()
		}
	}
	mem.Crash()
	c.res.Crashes += mem.Crashes()
	c.res.FsyncLies += mem.Lies()

	vcache := experiments.NewBlobCacheFS(dir, mem)
	vcache.SetObserver(nil, c.counters)
	vcache.SetInsecureSkipVerify(c.cfg.SkipVerify)
	for i := 0; i < blobsPerRound; i++ {
		key, hash := blobKey(round, i)
		var got blobEntry
		if !experiments.RunCodec.Load(vcache, hash, key, &got) {
			if round == 0 {
				return fmt.Errorf("diskfuzz: control round lost blob %s on an honest disk", key)
			}
			continue // a miss is loud enough: the caller recomputes
		}
		if want := blobPayload(c.cfg.Seed, round, i); !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			c.violate(Violation{
				Round: round, Leg: "blobs", Plan: plan.String(),
				Detail: fmt.Sprintf("cached entry %s decoded cleanly but differs from what was stored", key),
				Got:    string(g), Want: string(w),
			})
		}
	}
	return nil
}

// checkPrefix enforces the campaign invariant: the replayed stream may be
// short, but it may never diverge from the failure-free oracle.
func (c *campaign) checkPrefix(round int, leg string, plan hostfs.Plan, got []string) {
	for i, line := range got {
		if i >= len(c.oracle) {
			c.violate(Violation{
				Round: round, Leg: leg, Plan: plan.String(), Line: i, Got: line,
				Detail: "replayed stream is longer than the failure-free oracle",
			})
			return
		}
		if line != c.oracle[i] {
			c.violate(Violation{
				Round: round, Leg: leg, Plan: plan.String(), Line: i,
				Got: line, Want: c.oracle[i],
				Detail: "replayed stream diverges from the failure-free oracle",
			})
			return
		}
	}
}

func (c *campaign) violate(v Violation) {
	v.SchemaVersion = SchemaVersion
	v.Seed = c.cfg.Seed
	c.res.Violations = append(c.res.Violations, v)
}

// observe wires a store for fuzzing: campaign counters, no real backoff
// sleeps, and the sabotage hatch.
func (c *campaign) observe(st *experiments.SessionStore) {
	st.SetObserver(nil, c.counters)
	st.SetInsecureSkipVerify(c.cfg.SkipVerify)
	st.SetRetrySleep(func(time.Duration) {})
}

func (c *campaign) progress(line string) {
	if c.cfg.Progress != nil {
		c.cfg.Progress(line)
	}
}

// buildOracle runs the session once on a perfect in-memory disk and
// returns its full event stream — the exact NDJSON bytes the serving layer
// would write.
func buildOracle(spec experiments.SessionSpec, targets []uint64) ([]string, error) {
	st, err := experiments.OpenSessionStoreFS("oracle", hostfs.NewMem(hostfs.Plan{}))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	s, err := st.Create("fuzz", spec)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, target := range targets {
		if err := s.Advance(context.Background(), target, collectLines(&lines), nil); err != nil {
			return nil, fmt.Errorf("diskfuzz: oracle advance to %d: %v", target, err)
		}
	}
	if len(lines) == 0 {
		return nil, errors.New("diskfuzz: empty oracle stream")
	}
	return lines, nil
}

// collectLines marshals every event to one NDJSON line, matching the
// serving layer byte for byte.
func collectLines(dst *[]string) func(experiments.SessionEvent) error {
	return func(ev experiments.SessionEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		*dst = append(*dst, string(b))
		return nil
	}
}

// blobEntry is the blob leg's payload: mostly digits, so crash-time
// digit-flip corruption lands where JSON parsing cannot catch it.
type blobEntry struct {
	Round  int      `json:"round"`
	Index  int      `json:"index"`
	Values []uint64 `json:"values"`
}

func blobPayload(seed int64, round, i int) blobEntry {
	vals := make([]uint64, 12)
	for k := range vals {
		vals[k] = mix(uint64(seed) ^ uint64(round)<<40 ^ uint64(i)<<20 ^ uint64(k))
	}
	return blobEntry{Round: round, Index: i, Values: vals}
}

func blobKey(round, i int) (key, hash string) {
	key = fmt.Sprintf("diskfuzz:%d:%d", round, i)
	sum := sha256.Sum256([]byte(key))
	return key, hex.EncodeToString(sum[:])
}

// roundSeed derives one round's plan seed (splitmix64 finalizer).
func roundSeed(seed int64, round int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(round+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

func mix(z uint64) uint64 {
	z ^= z >> 33
	z *= 0xFF51AFD7ED558CCD
	z ^= z >> 33
	z *= 0xC4CEB9FE1A85EC53
	return z ^ z>>33
}

// writeArtifacts persists the manifest and one file per violation (the CI
// artifact a red lane uploads).
func writeArtifacts(dir string, res *Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	for i := range res.Violations {
		vb, err := json.MarshalIndent(res.Violations[i], "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("violation-%02d.json", i)
		if err := os.WriteFile(filepath.Join(dir, name), append(vb, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
