package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"lightwsp/internal/compiler"
	"lightwsp/internal/experiments"
	"lightwsp/internal/hostfs"
)

// expectedPath is where updateExpected writes, relative to the repository
// root; the binary embeds the file at build time.
const expectedPath = "perfbench/expected.json"

// updateExpected recomputes every committed output from the current tree:
// each sweep run's stats digest, the crash oracle's cycle count and PM
// hash, and a finished session's last pm_hash. Run it only for a change
// that is meant to alter simulated behaviour.
func updateExpected() error {
	runs, err := resolveSweep()
	if err != nil {
		return err
	}
	exp := expected{Sim: map[string]string{}}
	r := freshRunner()
	for _, s := range runs {
		st, err := r.Run(s.prof, s.sch, compiler.Config{})
		if err != nil {
			return err
		}
		exp.Sim[s.key()] = statsDigest(st)
	}
	_, rt, err := crashRuntime()
	if err != nil {
		return err
	}
	if _, exp.OracleCycles, exp.OracleHash, err = oracle(rt); err != nil {
		return err
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "expected-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := experiments.OpenSessionStoreFS(filepath.Join(dir, "sessions"), hostfs.Disk())
	if err != nil {
		return err
	}
	defer st.Close()
	if _, _, exp.SessionPMHash, err = directSession(st, "expected", time.Now().Add(time.Hour), nil); err != nil {
		return err
	}

	raw, err := json.MarshalIndent(exp, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(raw, '\n'), 0o644)
}
