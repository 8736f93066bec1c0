package crashfuzz

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"lightwsp/internal/compiler"
	"lightwsp/internal/core"
	"lightwsp/internal/experiments"
	"lightwsp/internal/faults"
	"lightwsp/internal/machine"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// ReproSchemaVersion stamps every repro file; it is the crashfuzz-repro
// version from the experiments codec table, the one place schema versions
// live. Bump it there whenever the replay semantics or the file format
// change; older repro files are then rejected instead of silently replaying
// something else.
//
// v2: repros carry a persist-fabric fault plan, replayed alongside the cuts.
var ReproSchemaVersion = experiments.ReproCodec.Version

// Repro is a minimal, self-contained reproducer of one crash-consistency
// divergence: everything needed to rebuild the exact workload (profiles are
// generated from a PRNG seeded by their name, so embedding the profile
// embeds the program), the exact machine, and the exact failure schedule.
// Campaigns write one JSON repro per shrunk divergence; `lightwsp-crashfuzz
// -replay file.json` re-executes it deterministically.
type Repro struct {
	SchemaVersion int `json:"schema_version"`
	// Profile rebuilds the workload program bit-identically.
	Profile workload.Profile `json:"profile"`
	// Scheme, Machine and Compiler pin the simulated hardware and the
	// region compiler exactly as the campaign resolved them.
	Scheme   machine.Scheme  `json:"scheme"`
	Machine  machine.Config  `json:"machine"`
	Compiler compiler.Config `json:"compiler"`
	// Cuts is the shrunk failure schedule (see Schedule).
	Cuts Schedule `json:"cuts"`
	// Faults is the (shrunk) persist-fabric fault plan each replay segment
	// runs under; the zero value replays on a perfect fabric.
	Faults faults.Plan `json:"faults,omitempty"`
	// Seed is the campaign seed that found the divergence (provenance; the
	// replay itself needs no randomness).
	Seed int64 `json:"seed"`
	// KeyHash is the canonical run-key hash (the experiments cache
	// identity) of the underlying simulation.
	KeyHash string `json:"key_hash"`
	// OracleCycles and OracleHash identify the failure-free run this
	// divergence was measured against; a replay whose fresh oracle hashes
	// differently signals a changed simulator, not a reproduced bug.
	OracleCycles uint64 `json:"oracle_cycles"`
	OracleHash   string `json:"oracle_hash"`
	// Diff samples the divergence (up to 8 mismatched words).
	Diff []string `json:"diff,omitempty"`
	Note string   `json:"note,omitempty"`
}

// WriteFile atomically-enough persists the repro as indented JSON.
func (r *Repro) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRepro reads and validates a repro file.
func LoadRepro(path string) (*Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("crashfuzz: %s: %w", path, err)
	}
	if r.SchemaVersion != ReproSchemaVersion {
		return nil, fmt.Errorf("crashfuzz: %s: schema version %d, this binary replays %d",
			path, r.SchemaVersion, ReproSchemaVersion)
	}
	if len(r.Cuts) == 0 {
		return nil, fmt.Errorf("crashfuzz: %s: empty failure schedule", path)
	}
	return &r, nil
}

// ReplayRepro deterministically re-executes a repro: rebuild the workload
// and runtime from the embedded configuration, re-run the failure-free
// oracle, replay the failure schedule, and re-check the verdict. It returns
// the divergence, or nil when the repro no longer fails (the bug is fixed —
// or was never real). An oracle whose cycle count or hash disagrees with the
// repro's is reported as an environment mismatch, not a divergence.
func ReplayRepro(r *Repro) error {
	rt, err := experiments.BuildRuntime(r.Profile, core.Scheme(), r.Machine, r.Compiler, nil)
	if err != nil {
		return err
	}
	orc, _, err := buildOracle(context.Background(), rt, maxReplayCycles, 0)
	if err != nil {
		return err
	}
	if orc.cycles != r.OracleCycles || orc.hash != r.OracleHash {
		return fmt.Errorf("crashfuzz: oracle mismatch: repro recorded %d cycles/%s, this tree produces %d cycles/%s — the simulator changed under the repro",
			r.OracleCycles, r.OracleHash, orc.cycles, orc.hash)
	}
	res, err := Replay(rt, r.Cuts, maxReplayCycles, nil, r.Faults)
	if err != nil {
		return err
	}
	if err := recovery.Verdict(res.Sys, orc.pm, r.Machine.Threads); err != nil {
		return fmt.Errorf("crashfuzz: repro still fails (cuts %v, %d fired): %w", r.Cuts, res.Fired, err)
	}
	return nil
}
