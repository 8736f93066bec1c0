package compiler

import (
	"math/rand"
	"testing"

	"lightwsp/internal/cfg"
	"lightwsp/internal/isa"
)

func mustCompile(t *testing.T, p *isa.Program, cc Config) *Result {
	t.Helper()
	res, err := Compile(p, cc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return res
}

// straightLine builds a program with n stores in a row.
func straightLine(n int) *isa.Program {
	b := isa.NewBuilder("straight")
	b.Func("main")
	b.MovImm(1, 0x1000)
	b.MovImm(2, 7)
	for i := 0; i < n; i++ {
		b.Store(1, int64(8*i), 2)
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func storeLoop(iters ...int) *isa.Program {
	b := isa.NewBuilder("loop")
	b.Func("main")
	b.MovImm(1, 0x1000) // base
	b.MovImm(2, 800)    // limit
	b.MovImm(3, 0)      // i
	loop := b.NewBlock()
	b.Store(1, 0, 3)
	b.AddImm(1, 1, 8)
	b.AddImm(3, 3, 1)
	b.CmpLT(4, 3, 2)
	b.Branch(4, loop, loop+1)
	b.NewBlock()
	b.Halt()
	b.SwitchTo(0)
	b.Jump(loop)
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// TestResolveDefaults: a zero threshold is half the WPQ (§IV-A) with the
// 4x unroll cap, a caller's unroll cap and pass switches survive it, and a
// set threshold is left alone.
func TestResolveDefaults(t *testing.T) {
	for _, tc := range []struct{ in, want Config }{
		{Config{}, Config{StoreThreshold: 128, MaxUnroll: 4}},
		{Config{MaxUnroll: 1}, Config{StoreThreshold: 128, MaxUnroll: 1}},
		{Config{DisablePruning: true}, Config{StoreThreshold: 128, MaxUnroll: 4, DisablePruning: true}},
		{Config{StoreThreshold: 16}, Config{StoreThreshold: 16}},
	} {
		if got := tc.in.Resolve(256); got != tc.want {
			t.Errorf("%+v.Resolve(256) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	if got := DefaultConfig(); got != (Config{StoreThreshold: 32, MaxUnroll: 4}) {
		t.Errorf("DefaultConfig() = %+v", got)
	}
}

func TestEntryExitBoundaries(t *testing.T) {
	res := mustCompile(t, straightLine(3), DefaultConfig())
	f := res.Prog.Funcs[0]
	if f.Blocks[0].Instrs[0].Op != isa.Boundary {
		t.Errorf("entry does not start with a boundary: %s", f.Blocks[0].Instrs[0].String())
	}
	// Some boundary must immediately precede the Halt.
	found := false
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == isa.Halt && i > 0 && blk.Instrs[i-1].Op == isa.Boundary {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no boundary before halt:\n%s", res.Prog.Disasm())
	}
	if res.Stats.Boundaries < 2 {
		t.Errorf("Boundaries = %d, want >= 2", res.Stats.Boundaries)
	}
}

func TestThresholdEnforcement(t *testing.T) {
	// 100 stores with threshold 8: need at least ceil(100/6) regions.
	cc := Config{StoreThreshold: 8, MaxUnroll: 1}
	res := mustCompile(t, straightLine(100), cc)
	if res.Stats.MaxRegionStores > 8 {
		t.Errorf("MaxRegionStores = %d > 8", res.Stats.MaxRegionStores)
	}
	if res.Stats.Boundaries < 100/6 {
		t.Errorf("Boundaries = %d, want >= %d", res.Stats.Boundaries, 100/6)
	}
	// A larger threshold needs fewer boundaries.
	res2 := mustCompile(t, straightLine(100), Config{StoreThreshold: 32, MaxUnroll: 1})
	if res2.Stats.Boundaries >= res.Stats.Boundaries {
		t.Errorf("threshold 32 produced %d boundaries, threshold 8 produced %d",
			res2.Stats.Boundaries, res.Stats.Boundaries)
	}
}

func TestLoopHeaderBoundary(t *testing.T) {
	res := mustCompile(t, storeLoop(), Config{StoreThreshold: 32, MaxUnroll: 1})
	// The loop must be cut by at least one boundary (header), or the
	// region bound check inside Compile would have failed. Verify via
	// CheckRegionBound with the same threshold.
	if err := CheckRegionBound(res.Prog, 32, nil); err != nil {
		t.Fatal(err)
	}
	var kinds []int64
	for _, f := range res.Prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == isa.Boundary {
					kinds = append(kinds, b.Instrs[i].Imm)
				}
			}
		}
	}
	hasLoop := false
	for _, k := range kinds {
		if k == KindLoop {
			hasLoop = true
		}
	}
	if !hasLoop {
		t.Errorf("no loop-header boundary inserted; kinds = %v", kinds)
	}
}

func TestStoreFreeLoopGetsNoHeaderBoundary(t *testing.T) {
	b := isa.NewBuilder("pureloop")
	b.Func("main")
	b.MovImm(1, 0)
	b.MovImm(2, 100)
	loop := b.NewBlock()
	b.AddImm(1, 1, 1)
	b.CmpLT(3, 1, 2)
	b.Branch(3, loop, loop+1)
	b.NewBlock()
	b.Halt()
	b.SwitchTo(0)
	b.Jump(loop)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := mustCompile(t, p, DefaultConfig())
	for _, f := range res.Prog.Funcs {
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				if blk.Instrs[i].Op == isa.Boundary && blk.Instrs[i].Imm == KindLoop {
					t.Fatal("store-free loop got a header boundary")
				}
			}
		}
	}
}

func TestUnrollingExtendsRegions(t *testing.T) {
	noUnroll := mustCompile(t, storeLoop(), Config{StoreThreshold: 32, MaxUnroll: 1})
	unrolled := mustCompile(t, storeLoop(), Config{StoreThreshold: 32, MaxUnroll: 4})
	if unrolled.Stats.UnrolledLoops != 1 {
		t.Fatalf("UnrolledLoops = %d, want 1", unrolled.Stats.UnrolledLoops)
	}
	if unrolled.Prog.NumInstrs() <= noUnroll.Prog.NumInstrs() {
		t.Errorf("unrolled program not larger: %d vs %d",
			unrolled.Prog.NumInstrs(), noUnroll.Prog.NumInstrs())
	}
	if err := CheckRegionBound(unrolled.Prog, 32, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointInsertionLiveOut(t *testing.T) {
	// r5 is defined before a call boundary and used after: must be
	// checkpointed at some boundary before its post-call use.
	b := isa.NewBuilder("live")
	callee := -1
	b.Func("main")
	b.MovImm(5, 42)
	b.MovImm(1, 1) // arg
	b.Call(1, 1)   // placeholder index; patched below
	b.Store(5, 0, 5)
	b.Halt()
	callee = b.Func("leaf")
	b.MovImm(0, 9)
	b.Ret(0)
	// Patch the call target.
	p, err := b.Build()
	if err == nil {
		p.Funcs[0].Blocks[0].Instrs[2].Target = callee
		err = p.Validate()
	}
	if err != nil {
		t.Fatal(err)
	}
	res := mustCompile(t, p, DefaultConfig())
	found := false
	for _, blk := range res.Prog.Funcs[0].Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == isa.CkptStore && blk.Instrs[i].Rs1 == 5 {
				found = true
			}
		}
	}
	// r5 = 42 is a constant, so pruning may legitimately remove the
	// checkpoint — in that case a recipe must exist.
	if !found {
		hasRecipe := false
		for _, rs := range res.Recipes {
			for _, r := range rs {
				if r.Reg == 5 && r.Const == 42 {
					hasRecipe = true
				}
			}
		}
		if !hasRecipe {
			t.Fatalf("r5 neither checkpointed nor recipe-recorded:\n%s", res.Prog.Disasm())
		}
	}
}

func TestCheckpointPruningRecordsRecipes(t *testing.T) {
	p := straightLine(3)
	resP := mustCompile(t, p, DefaultConfig())
	resNoP := mustCompile(t, p, Config{StoreThreshold: 32, MaxUnroll: 1, DisablePruning: true})
	if resP.Stats.PrunedCheckpoints == 0 {
		t.Skip("nothing pruned in this shape")
	}
	if resP.Stats.Checkpoints >= resNoP.Stats.Checkpoints {
		t.Errorf("pruning did not reduce checkpoints: %d vs %d",
			resP.Stats.Checkpoints, resNoP.Stats.Checkpoints)
	}
	total := 0
	for _, rs := range resP.Recipes {
		total += len(rs)
	}
	if total != resP.Stats.PrunedCheckpoints {
		t.Errorf("recipes (%d) != pruned (%d)", total, resP.Stats.PrunedCheckpoints)
	}
}

func TestRecipeKeysAreValidPCs(t *testing.T) {
	res := mustCompile(t, straightLine(40), Config{StoreThreshold: 12, MaxUnroll: 1})
	for key := range res.Recipes {
		pc := isa.UnpackPC(key)
		if pc.Func >= len(res.Prog.Funcs) ||
			pc.Block >= len(res.Prog.Funcs[pc.Func].Blocks) ||
			pc.Index > len(res.Prog.Funcs[pc.Func].Blocks[pc.Block].Instrs) {
			t.Fatalf("recipe key %v out of range", pc)
		}
		// The recovery PC of an explicit boundary points at the
		// instruction right after it.
		blk := res.Prog.Funcs[pc.Func].Blocks[pc.Block]
		if pc.Index > 0 && blk.Instrs[pc.Index-1].Op != isa.Boundary && !blk.Instrs[pc.Index].Op.IsSync() {
			t.Errorf("recipe key %v is not anchored to a region end", pc)
		}
	}
}

func TestCombiningReducesBoundaries(t *testing.T) {
	p := straightLine(60)
	on := mustCompile(t, p, Config{StoreThreshold: 32, MaxUnroll: 1})
	off := mustCompile(t, p, Config{StoreThreshold: 32, MaxUnroll: 1, DisableCombining: true})
	if on.Stats.Boundaries > off.Stats.Boundaries {
		t.Errorf("combining increased boundaries: %d vs %d", on.Stats.Boundaries, off.Stats.Boundaries)
	}
}

func TestSyncDelimitsRegions(t *testing.T) {
	// 20 stores, fence, 20 stores with threshold 50: the fence's implicit
	// boundary must reset the count, so no split boundary is needed.
	b := isa.NewBuilder("sync")
	b.Func("main")
	b.MovImm(1, 0x1000)
	b.MovImm(2, 3)
	for i := 0; i < 20; i++ {
		b.Store(1, int64(8*i), 2)
	}
	b.Fence()
	for i := 20; i < 40; i++ {
		b.Store(1, int64(8*i), 2)
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := mustCompile(t, p, Config{StoreThreshold: 50, MaxUnroll: 1})
	for _, f := range res.Prog.Funcs {
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				if blk.Instrs[i].Op == isa.Boundary && blk.Instrs[i].Imm == KindSplit {
					t.Fatalf("unexpected split boundary; fence should delimit regions:\n%s", res.Prog.Disasm())
				}
			}
		}
	}
	// Registers live across the fence must be checkpointed before it.
	ckptBeforeFence := false
	for _, f := range res.Prog.Funcs {
		for _, blk := range f.Blocks {
			for i := 1; i < len(blk.Instrs); i++ {
				if blk.Instrs[i].Op == isa.Fence {
					for j := i - 1; j >= 0 && blk.Instrs[j].Op == isa.CkptStore; j-- {
						ckptBeforeFence = true
					}
				}
			}
		}
	}
	if !ckptBeforeFence {
		t.Log("note: no checkpoints before fence (may be all pruned as constants)")
	}
}

func TestRejectsInstrumentedInput(t *testing.T) {
	p := straightLine(2)
	p.Funcs[0].Blocks[0].Instrs[0] = isa.Instr{Op: isa.Boundary}
	if _, err := Compile(p, DefaultConfig()); err == nil {
		t.Fatal("accepted already-instrumented input")
	}
}

func TestRejectsTinyThreshold(t *testing.T) {
	if _, err := Compile(straightLine(2), Config{StoreThreshold: 2}); err == nil {
		t.Fatal("accepted threshold below minimum")
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	p := straightLine(5)
	before := p.NumInstrs()
	mustCompile(t, p, DefaultConfig())
	if p.NumInstrs() != before {
		t.Fatal("Compile mutated its input program")
	}
}

func TestBoundaryNormalForm(t *testing.T) {
	res := mustCompile(t, storeLoop(), DefaultConfig())
	for _, f := range res.Prog.Funcs {
		for bi, blk := range f.Blocks {
			for i := range blk.Instrs {
				if blk.Instrs[i].Op == isa.Boundary && i != len(blk.Instrs)-2 {
					t.Errorf("b%d: boundary at %d not in normal form (len %d)", bi, i, len(blk.Instrs))
				}
			}
		}
	}
}

// randProg generates a structured random program exercising stores, loops,
// branches, calls and fences. Leaf functions occupy indices 1..nLeaf so call
// targets can be forward-referenced from main (function 0).
func randProg(r *rand.Rand) *isa.Program {
	b := isa.NewBuilder("rand")
	nLeaf := 1 + r.Intn(2)
	b.Func("main")
	segs := 2 + r.Intn(5)
	b.MovImm(1, 0x10000) // base pointer
	b.MovImm(2, int64(r.Intn(100)))
	for s := 0; s < segs; s++ {
		switch r.Intn(6) {
		case 0: // store run
			n := 1 + r.Intn(20)
			for i := 0; i < n; i++ {
				b.Store(1, int64(8*i), 2)
			}
		case 1: // alu
			for i := 0; i < r.Intn(6); i++ {
				b.AddImm(isa.Reg(3+r.Intn(5)), 2, int64(i))
			}
		case 2: // self loop with stores
			b.MovImm(3, 0)
			b.MovImm(4, int64(2+r.Intn(20)))
			loop := b.NewBlock() // previous block (loop-1) is still open
			b.Store(1, 0, 3)
			b.AddImm(3, 3, 1)
			b.CmpLT(5, 3, 4)
			next := loop + 1
			b.Branch(5, loop, next)
			b.NewBlock() // next
			b.SwitchTo(loop - 1)
			b.Jump(loop)
			b.SwitchTo(next)
		case 3: // fence
			b.Fence()
		case 4: // diamond
			b.CmpLT(6, 2, 1)
			pre := b.CurrentBlock()
			then := b.NewBlock()
			b.Store(1, 8, 2)
			b.Jump(then + 2) // join, created below
			els := b.NewBlock()
			b.Store(1, 16, 2)
			b.Jump(els + 1) // join
			join := b.NewBlock()
			b.SwitchTo(pre)
			b.Branch(6, then, els)
			b.SwitchTo(join)
		case 5: // call a leaf
			b.Mov(isa.ArgReg(0), 1)
			b.Call(1+r.Intn(nLeaf), 1)
		}
	}
	b.Halt()
	for i := 0; i < nLeaf; i++ {
		b.Func("leaf")
		n := r.Intn(8)
		for j := 0; j < n; j++ {
			b.Store(1, int64(8*j), 1)
		}
		b.MovImm(0, 5)
		b.Ret(0)
	}
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func TestCompileRandomProgramsHoldBound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		p := randProg(r)
		for _, th := range []int{8, 16, 32, 64} {
			res, err := Compile(p, Config{StoreThreshold: th, MaxUnroll: 4})
			if err != nil {
				t.Fatalf("trial %d threshold %d: %v\n%s", trial, th, err, p.Disasm())
			}
			if res.Stats.MaxRegionStores > th {
				t.Fatalf("trial %d: bound violated: %d > %d", trial, res.Stats.MaxRegionStores, th)
			}
			if err := res.Prog.Validate(); err != nil {
				t.Fatalf("trial %d: invalid output: %v", trial, err)
			}
		}
	}
}

// TestCheckpointSoundness verifies the checkpoint invariant statically: for
// every region end, every register live into the next region is either in
// the may-defined set (and thus checkpointed there) or flows unchanged from
// a previous region end where induction applies.
func TestCheckpointSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		res := mustCompile(t, randProg(r), Config{StoreThreshold: 16, MaxUnroll: 2, DisablePruning: true})
		for fi, f := range res.Prog.Funcs {
			g := cfg.New(f)
			lv := cfg.ComputeLiveness(g)
			fc := &funcCompiler{prog: res.Prog, fi: fi, cfg: res.Config, res: res}
			mayIn := fc.mayDefinedSinceBoundary(g)
			for _, bi := range g.RPO {
				blk := f.Blocks[bi]
				def := mayIn[bi]
				for i := range blk.Instrs {
					in := &blk.Instrs[i]
					if in.Op == isa.Boundary || in.Op.IsSync() {
						need := lv.LiveBefore(g, bi, i) & def
						// Every needed register must have a CkptStore
						// directly before this instruction.
						got := cfg.RegSet(0)
						for j := i - 1; j >= 0 && blk.Instrs[j].Op == isa.CkptStore; j-- {
							got = got.Add(blk.Instrs[j].Rs1)
						}
						for _, reg := range need.Regs() {
							if !got.Has(reg) {
								t.Fatalf("f%d b%d i%d: live defined reg %s not checkpointed", fi, bi, i, reg)
							}
						}
						def = 0
					}
					if d, ok := in.Defs(); ok {
						def = def.Add(d)
					}
				}
			}
		}
	}
}
