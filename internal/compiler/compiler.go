// Package compiler implements the LightWSP compiler of §IV-A: it partitions
// a program into recoverable regions (epochs) whose persist-path store count
// never exceeds a WPQ-derived threshold, checkpoints live-out registers into
// the PM-resident checkpoint array, and shrinks the checkpoint overhead with
// region combining, (speculative) loop unrolling and checkpoint pruning.
//
// The pass pipeline mirrors Figure 3 of the paper:
//
//	initial region boundary insertion  →  (speculative) loop unrolling  →
//	liveness analysis / checkpoint insertion  ⇄  region formation
//	(combine + repartition to the store threshold)  →  checkpoint pruning
//
// The circular dependence between checkpoint insertion (which adds stores)
// and region partitioning (which bounds stores) is broken by iterating the
// two passes to a fixed point, exactly as the paper describes.
package compiler

import (
	"fmt"

	"lightwsp/internal/cfg"
	"lightwsp/internal/isa"
)

// Config controls compilation.
type Config struct {
	// StoreThreshold is the maximum number of persist-path stores
	// (including checkpoint and boundary stores) allowed in one region.
	// The paper sets it to half the WPQ entry count (§IV-A); 32 for the
	// default 64-entry WPQ.
	StoreThreshold int
	// MaxUnroll caps the (speculative) loop-unrolling factor used to
	// extend small loop regions. 1 disables unrolling. The paper reports
	// ~3x longer regions from this optimization; 4 is the default cap.
	MaxUnroll int
	// DisablePruning turns off checkpoint pruning (for ablation).
	DisablePruning bool
	// DisableCombining turns off region combining (for ablation).
	DisableCombining bool
}

// Resolve applies the paper's defaults (§IV-A) for a WPQ of wpqEntries
// entries: a zero StoreThreshold becomes half the WPQ and, with it, a zero
// MaxUnroll the 4x cap. A set StoreThreshold keeps the caller's MaxUnroll.
func (c Config) Resolve(wpqEntries int) Config {
	if c.StoreThreshold == 0 {
		c.StoreThreshold = wpqEntries / 2
		if c.MaxUnroll == 0 {
			c.MaxUnroll = 4
		}
	}
	return c
}

// DefaultConfig returns the paper's default compiler configuration for the
// default 64-entry WPQ: threshold 32, unrolling capped at 4x.
func DefaultConfig() Config { return Config{}.Resolve(64) }

// Recipe reconstructs one pruned checkpoint: at recovery time the register
// holds a compile-time constant instead of a checkpoint-array load.
type Recipe struct {
	Reg   isa.Reg
	Const int64
}

// Result is the output of Compile.
type Result struct {
	// Prog is the instrumented program (boundaries + checkpoint stores).
	Prog *isa.Program
	// Config echoes the configuration used.
	Config Config
	// Recipes maps a Boundary's packed PC to the reconstruction recipes
	// of checkpoints pruned at that boundary. The recovery runtime
	// applies them after reloading the surviving checkpoint slots.
	Recipes map[uint64][]Recipe
	// Stats summarises the compilation.
	Stats Stats
}

// Stats are static compilation statistics.
type Stats struct {
	// SourceInstrs is the instruction count before instrumentation.
	SourceInstrs int
	// FinalInstrs is the instruction count after instrumentation.
	FinalInstrs int
	// Boundaries is the number of Boundary instructions inserted.
	Boundaries int
	// Checkpoints is the number of CkptStore instructions that survived
	// pruning.
	Checkpoints int
	// PrunedCheckpoints counts checkpoint stores avoided by pruning:
	// one per region end at which a global-constant register is live
	// and reconstructed by recipe instead of occupying a slot store.
	PrunedCheckpoints int
	// CombinedBoundaries is the number removed by region combining.
	CombinedBoundaries int
	// UnrolledLoops is the number of loops extended by unrolling.
	UnrolledLoops int
	// ConstRecipes is the number of per-boundary reconstruction recipes
	// recorded for global-constant registers (never checkpointed at all).
	ConstRecipes int
	// MaxRegionStores is the largest static per-region store bound
	// observed after partitioning (must be ≤ StoreThreshold).
	MaxRegionStores int
}

// Compile instruments prog (in place on a clone) for LightWSP region-level
// persistence and returns the result. The input program must not already
// contain Boundary or CkptStore instructions.
func Compile(prog *isa.Program, cc Config) (*Result, error) {
	if cc.StoreThreshold < minThreshold {
		return nil, fmt.Errorf("compiler: store threshold %d below minimum %d", cc.StoreThreshold, minThreshold)
	}
	if cc.MaxUnroll < 1 {
		cc.MaxUnroll = 1
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				switch b.Instrs[i].Op {
				case isa.Boundary, isa.CkptStore:
					return nil, fmt.Errorf("compiler: input already instrumented (%s in %s)", b.Instrs[i].Op, f.Name)
				}
			}
		}
	}
	res := &Result{
		Prog:    prog.Clone(),
		Config:  cc,
		Recipes: map[uint64][]Recipe{},
	}
	res.Stats.SourceInstrs = prog.NumInstrs()

	// Phase 1: structural instrumentation (initial boundaries, unrolling).
	fcs := make([]*funcCompiler, len(res.Prog.Funcs))
	for fi := range res.Prog.Funcs {
		fcs[fi] = &funcCompiler{prog: res.Prog, fi: fi, cfg: cc, res: res}
		fcs[fi].prepare()
	}
	// Phase 2: program-scope constant qualification (checkpoint pruning).
	var consts *progConsts
	if !cc.DisablePruning {
		consts = findProgramConstants(res.Prog)
		mask := consts.mask()
		for _, c := range fcs {
			c.constRegs = mask
		}
	}
	// Phase 3: per-function partitioning to the store threshold.
	for fi, c := range fcs {
		if err := c.partition(); err != nil {
			return nil, fmt.Errorf("compiler: %s: %w", res.Prog.Funcs[fi].Name, err)
		}
	}
	// Phase 4: recovery recipes on the final layout.
	if !cc.DisablePruning {
		n := recordConstRecipes(res, consts)
		res.Stats.ConstRecipes = n
		res.Stats.PrunedCheckpoints = n
	}

	res.Stats.FinalInstrs = res.Prog.NumInstrs()
	countInstrs(res)
	if err := res.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: produced invalid program: %w", err)
	}
	if err := CheckRegionBound(res.Prog, cc.StoreThreshold, &res.Stats.MaxRegionStores); err != nil {
		return nil, err
	}
	return res, nil
}

const minThreshold = 4 // room for a boundary plus a few checkpoints

func countInstrs(res *Result) {
	for _, f := range res.Prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				switch b.Instrs[i].Op {
				case isa.Boundary:
					res.Stats.Boundaries++
				case isa.CkptStore:
					res.Stats.Checkpoints++
				}
			}
		}
	}
}

// funcCompiler carries per-function pass state.
type funcCompiler struct {
	prog *isa.Program
	fi   int
	cfg  Config
	res  *Result
	// ckptReserve is the running maximum checkpoint-run length, reserved
	// out of the partitioning budget (see partitionFixpoint).
	ckptReserve int
	// constRegs are the global-constant registers (see findProgramConstants)
	// excluded from checkpointing and reconstructed by recipes instead.
	constRegs cfg.RegSet
}

func (c *funcCompiler) fn() *isa.Function { return c.prog.Funcs[c.fi] }

// prepare performs the structural phase on one function: initial boundary
// insertion, (speculative) loop unrolling, block normalization.
func (c *funcCompiler) prepare() {
	c.insertInitialBoundaries()
	if c.cfg.MaxUnroll > 1 {
		// Unrolling runs before block splitting so self-loops are still
		// single blocks (header == latch) and easy to replicate.
		c.res.Stats.UnrolledLoops += c.unrollLoops()
	}
	c.splitAtBoundaries()
}

// partition runs the checkpoint-insertion/threshold fixed point and region
// combining on one function. Registers in constRegs are never checkpointed:
// the program-scope pruning phase guarantees their recipes exist at every
// possible resume point (a pruned register's slot is never valid).
func (c *funcCompiler) partition() error {
	if err := c.partitionFixpoint(); err != nil {
		return err
	}
	if !c.cfg.DisableCombining {
		removed := c.combineRegions()
		c.res.Stats.CombinedBoundaries += removed
		if removed > 0 {
			// Re-establish checkpoints and the threshold once more.
			if err := c.partitionFixpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// partitionFixpoint alternates checkpoint insertion and threshold
// enforcement until no new boundary is needed.
//
// The circular dependence the paper describes — checkpoint stores attach to
// whatever boundary closes their region, so a freshly inserted boundary
// attracts them and can be pushed back over the threshold — is broken by
// budgeting: the enforcement counts only non-checkpoint stores against a
// budget that reserves room for the longest checkpoint run seen so far (a
// running maximum, so the budget is monotone and the loop terminates). Any
// region then satisfies plain ≤ budget, checkpoints ≤ reserve, boundary = 2,
// whose sum is within the threshold.
func (c *funcCompiler) partitionFixpoint() error {
	const maxIter = 200
	for iter := 0; iter < maxIter; iter++ {
		c.clearCheckpoints()
		c.insertCheckpoints()
		if run := c.maxCheckpointRun(); run > c.ckptReserve {
			c.ckptReserve = run
		}
		budget := c.cfg.StoreThreshold - isa.BoundaryStores - c.ckptReserve
		if budget < 1 {
			return fmt.Errorf("register pressure (%d live checkpoints) exceeds store threshold %d",
				c.ckptReserve, c.cfg.StoreThreshold)
		}
		added, err := c.enforceThreshold(budget)
		if err != nil {
			return err
		}
		if added == 0 {
			return nil
		}
		c.splitAtBoundaries()
	}
	return fmt.Errorf("region partitioning did not converge after %d iterations", maxIter)
}

// maxCheckpointRun returns the length of the longest contiguous CkptStore
// run in the function — the largest per-boundary checkpoint cost.
func (c *funcCompiler) maxCheckpointRun() int {
	max, run := 0, 0
	for _, blk := range c.fn().Blocks {
		run = 0
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == isa.CkptStore {
				run++
				if run > max {
					max = run
				}
			} else {
				run = 0
			}
		}
	}
	return max
}

// CheckRegionBound verifies the compiler invariant that no region can
// dynamically issue more persist-path stores than threshold. It runs the
// same max-path dataflow the partitioner uses and fails if any program
// point can be reached with a higher in-region store count. maxOut, if
// non-nil, receives the largest count observed.
//
// The accounting matches the hardware: a region's count includes all its
// instruction stores (isa.Op.PersistStores), the closing boundary's two
// checkpoint-slot stores, and — when the region is closed by a
// synchronization instruction's implicit hardware boundary — the two slots
// that implicit boundary writes.
func CheckRegionBound(p *isa.Program, threshold int, maxOut *int) error {
	max := 0
	fullStep := func(cnt int, in *isa.Instr) int { return resetCount(stepCount(cnt, in), in) }
	for fi := range p.Funcs {
		g := cfg.New(p.Funcs[fi])
		counts, diverged := regionStoreCounts(g, fullStep)
		if diverged {
			return fmt.Errorf("compiler: %s has an unbounded store cycle within a region", p.Funcs[fi].Name)
		}
		for _, b := range g.RPO {
			cnt := counts[b]
			for i := range p.Funcs[fi].Blocks[b].Instrs {
				in := &p.Funcs[fi].Blocks[b].Instrs[i]
				cnt = stepCount(cnt, in)
				if cnt > max {
					max = cnt
				}
				if cnt > threshold {
					return fmt.Errorf("compiler: %s:b%d:%d exceeds store threshold (%d > %d)",
						p.Funcs[fi].Name, b, i, cnt, threshold)
				}
				cnt = resetCount(cnt, in)
			}
		}
	}
	if maxOut != nil {
		*maxOut = max
	}
	return nil
}
