// Package recovery implements LightWSP's power-failure recovery runtime
// (§III-E, §IV-F): after the memory controllers' drain protocol leaves PM
// holding exactly the persisted-region prefix, the runtime (1) rolls back
// any undo-logged WPQ-overflow writes of uncommitted regions (§IV-D),
// (2) reloads each thread's registers, stack pointer and recovery PC from
// its PM-resident checkpoint array, and (3) reconstructs pruned checkpoints
// from the compiler's recipes — then execution resumes at the beginning of
// each thread's latest unpersisted region.
package recovery

import (
	"fmt"

	"lightwsp/internal/compiler"
	"lightwsp/internal/isa"
	"lightwsp/internal/machine"
	"lightwsp/internal/mem"
	"lightwsp/internal/wpq"
)

// RollbackUndoLogs reverts the undo-logged overflow writes of every memory
// controller whose escape-path region never committed. It must run before
// thread state is read: overflow writes may cover checkpoint slots. It
// returns the total records rolled back.
func RollbackUndoLogs(pm *mem.Image, numMCs int) int {
	n := 0
	for m := 0; m < numMCs; m++ {
		n += wpq.RecoverUndo(m, pm.Read, pm.Write)
	}
	return n
}

// ThreadStates reads each thread's recovery state from its checkpoint array
// in the persisted image and applies the pruning recipes recorded for its
// recovery PC.
func ThreadStates(pm *mem.Image, threads int, prog *isa.Program, recipes map[uint64][]compiler.Recipe) ([]machine.ThreadState, error) {
	states := make([]machine.ThreadState, threads)
	for t := 0; t < threads; t++ {
		st := &states[t]
		pcWord := pm.Read(mem.CkptAddr(t, mem.CkptSlotPC))
		st.PC = isa.UnpackPC(pcWord)
		if err := validatePC(prog, st.PC); err != nil {
			return nil, fmt.Errorf("recovery: thread %d: %w", t, err)
		}
		st.SP = pm.Read(mem.CkptAddr(t, mem.CkptSlotSP))
		for r := 0; r < isa.NumRegs; r++ {
			st.Regs[r] = pm.Read(mem.CkptAddr(t, r))
		}
		for _, rec := range recipes[pcWord] {
			st.Regs[rec.Reg] = uint64(rec.Const)
		}
	}
	return states, nil
}

func validatePC(prog *isa.Program, pc isa.PC) error {
	if pc.Func < 0 || pc.Func >= len(prog.Funcs) {
		return fmt.Errorf("recovery PC %v: function out of range", pc)
	}
	f := prog.Funcs[pc.Func]
	if pc.Block < 0 || pc.Block >= len(f.Blocks) {
		return fmt.Errorf("recovery PC %v: block out of range", pc)
	}
	if pc.Index < 0 || pc.Index >= len(f.Blocks[pc.Block].Instrs) {
		return fmt.Errorf("recovery PC %v: index out of range", pc)
	}
	return nil
}

// Recover builds a recovered machine from a crash image: undo rollback,
// thread-state reload, and a region counter seeded above every persisted
// ID. The returned system resumes each thread at its latest unpersisted
// region.
func Recover(prog *isa.Program, cfg machine.Config, scheme machine.Scheme,
	pm *mem.Image, recipes map[uint64][]compiler.Recipe, regionCounter uint64) (*machine.System, error) {
	RollbackUndoLogs(pm, cfg.NumMCs)
	states, err := ThreadStates(pm, cfg.Threads, prog, recipes)
	if err != nil {
		return nil, err
	}
	return machine.NewRecoveredSystem(prog, cfg, scheme, pm, states, regionCounter+1)
}

// ValidateImage checks that a persisted image is a viable recovery point —
// its undo logs roll back cleanly and every thread's checkpointed PC lands
// inside the program — without building a machine or mutating pm. Durable
// snapshot stores use it to vet a deserialized image before committing to
// resume from it; a snapshot file truncated by the very power failure it was
// meant to survive fails here and the store falls back to an older one.
func ValidateImage(prog *isa.Program, cfg machine.Config, recipes map[uint64][]compiler.Recipe, pm *mem.Image) error {
	scratch := pm.Clone()
	RollbackUndoLogs(scratch, cfg.NumMCs)
	_, err := ThreadStates(scratch, cfg.Threads, prog, recipes)
	return err
}

// UserRangeEnd is the top of the address range holding program data: above
// it live the undo logs, call stacks and checkpoint arrays, whose final
// contents legitimately differ between a run that crashed and recovered and
// one that never crashed (a recovered run re-seeds all checkpoint slots).
// Crash-consistency comparisons use [0, UserRangeEnd).
const UserRangeEnd = mem.UndoLogBase

// VerifyEquivalence checks that two final persisted images agree on all
// program data — the crash-anywhere/recover/finish result must be
// indistinguishable from the failure-free run (invariant 5 of DESIGN.md).
func VerifyEquivalence(got, want *mem.Image) error {
	if got.EqualRange(want, 0, UserRangeEnd) {
		return nil
	}
	diffs := got.Diff(want, 8)
	return fmt.Errorf("recovery: persisted data diverges from failure-free run: %v", diffs)
}

// VerifyPMMatchesArch checks that a completed run's persisted image agrees
// with its final architectural state on all program data. This is the
// invariant every whole-system-persistence run must satisfy at completion —
// and the one multi-threaded crash comparisons fall back to, because
// commutative critical sections can legally interleave differently across a
// recovery, so the final data need not match any one failure-free run
// word-for-word.
func VerifyPMMatchesArch(pm, arch *mem.Image) error {
	if pm.EqualRange(arch, 0, UserRangeEnd) {
		return nil
	}
	diffs := pm.Diff(arch, 8)
	return fmt.Errorf("recovery: persisted data diverges from final architectural state: %v", diffs)
}

// Verdict judges a run that crashed, recovered and completed against the
// failure-free run's final persisted image oracle. Every such run must end
// with PM ≡ its final architectural state on program data; a
// single-threaded run must also match the oracle word for word. A
// multi-threaded run can legally reorder commutative critical sections
// across a recovery, so its data need not match any one failure-free
// interleaving.
func Verdict(final *machine.System, oracle *mem.Image, threads int) error {
	if err := VerifyPMMatchesArch(final.PM(), final.Arch()); err != nil {
		return err
	}
	if threads == 1 {
		return VerifyEquivalence(final.PM(), oracle)
	}
	return nil
}
