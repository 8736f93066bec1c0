package core

import (
	"context"

	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/machine"
	"lightwsp/internal/recovery"
	"lightwsp/internal/workload"
)

// FuzzCrashConsistency is a native fuzz target over the system's central
// property: for any generated program, any store threshold and any failure
// point, crash + recover + finish must reproduce the failure-free persisted
// image. Run with:
//
//	go test ./internal/core -fuzz FuzzCrashConsistency -fuzztime 1m
func FuzzCrashConsistency(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(0))
	f.Add(int64(7), uint8(10), uint8(1))
	f.Add(int64(42), uint8(90), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, failPct uint8, thIdx uint8) {
		prog := workload.RandomProgram(seed)
		threshold := []int{8, 16, 32, 64}[int(thIdx)%4]
		cfg := machine.DefaultConfig()
		cfg.Cores = 2
		cfg.Threads = 1
		rt, err := NewRuntimeFor(prog, compiler.Config{StoreThreshold: threshold, MaxUnroll: 4}, cfg, Scheme(), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		clean, err := rt.Run(context.Background(), 100_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fail := clean.Stats.Cycles * uint64(failPct%101) / 100
		if fail == 0 {
			fail = 1
		}
		res, err := rt.RunWithFailure(context.Background(), fail, 100_000_000)
		if err != nil {
			t.Fatalf("seed %d fail %d: %v", seed, fail, err)
		}
		if err := recovery.VerifyEquivalence(res.Recovered.PM(), clean.PM()); err != nil {
			t.Fatalf("seed %d threshold %d fail %d/%d: %v",
				seed, threshold, fail, clean.Stats.Cycles, err)
		}
	})
}
