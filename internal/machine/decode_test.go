package machine

import (
	"fmt"
	"slices"
	"testing"

	"lightwsp/internal/isa"
	"lightwsp/internal/workload"
)

// TestDecodedTableMatchesProgram checks every machine's decoded table
// against the program it runs, instruction by instruction: each entry
// points at that instruction and lists the registers Instr.Uses lists. It
// covers every workload profile (and the fuzz profiles) as built, as
// compiled for LightWSP and as cWSP runs it, with its checkpoint stores
// stripped at load time.
func TestDecodedTableMatchesProgram(t *testing.T) {
	cwsp := lightScheme()
	cwsp.Name, cwsp.StripCheckpoints, cwsp.GatedWPQ = "cwsp", true, false
	profiles := append(workload.Profiles(), workload.FuzzSmokeProfiles()...)
	for _, p := range profiles {
		cfg := scaledEquivConfig(p)
		for _, sch := range []Scheme{plainScheme(), lightScheme(), cwsp} {
			t.Run(fmt.Sprintf("%s/%s/%s", p.Suite, p.Name, sch.Name), func(t *testing.T) {
				prog := buildEquivProg(t, p, cfg, sch)
				sys, err := NewSystem(prog, cfg, sch)
				if err != nil {
					t.Fatal(err)
				}
				checkDecoded(t, sys)
				if sch.StripCheckpoints && sys.Prog().NumInstrs() == prog.NumInstrs() {
					t.Fatal("the compiled program has no checkpoint stores to strip")
				}
			})
		}
	}
}

func checkDecoded(t *testing.T, sys *System) {
	t.Helper()
	prog := sys.Prog()
	if len(sys.code) != len(prog.Funcs) {
		t.Fatalf("table has %d functions, program %d", len(sys.code), len(prog.Funcs))
	}
	stripped := sys.scheme.StripCheckpoints
	for fi, f := range prog.Funcs {
		if len(sys.code[fi]) != len(f.Blocks) {
			t.Fatalf("f%d: table has %d blocks, program %d", fi, len(sys.code[fi]), len(f.Blocks))
		}
		for bi, b := range f.Blocks {
			if len(sys.code[fi][bi]) != len(b.Instrs) {
				t.Fatalf("f%d:b%d: table has %d instructions, program %d", fi, bi, len(sys.code[fi][bi]), len(b.Instrs))
			}
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				d := &sys.code[fi][bi][ii]
				pc := isa.PC{Func: fi, Block: bi, Index: ii}
				if d.in != in {
					t.Fatalf("%v: the entry does not point at the program's instruction %v", pc, in)
				}
				if stripped && in.Op == isa.CkptStore {
					t.Fatalf("%v: a cWSP machine runs a checkpoint store", pc)
				}
				if got, want := d.uses[:d.n], in.Uses(nil); !slices.Equal(got, want) {
					t.Fatalf("%v (%v): decoded uses %v, Instr.Uses %v", pc, in, got, want)
				}
			}
		}
	}
}
