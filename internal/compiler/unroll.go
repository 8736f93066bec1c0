package compiler

import (
	"lightwsp/internal/cfg"
	"lightwsp/internal/isa"
)

// unrollLoops implements the paper's region-size extension (§IV-A "Region
// Size Extension and Checkpoint Pruning"): loops whose bodies contain only a
// few stores produce many tiny regions (one per iteration, delimited by the
// loop-header boundary), each paying checkpoint stores for its live-outs.
// Speculative unrolling duplicates the loop body together with its exit
// condition, so one region covers several iterations while the store
// threshold still holds. Because the exit test is replicated with each copy,
// the transformation is valid for any trip count — this is exactly the
// "speculative loop unrolling" of [39], [53].
//
// Only self-loops (single-block bodies, typical of innermost loops) are
// unrolled; the factor is the largest u ≤ MaxUnroll such that u ×
// bodyStores plus the region-closing overhead stays under the store
// threshold. The workload generator emits no inner loops, so no evaluation
// program has one (TestPassFiringCounts); hand-built and random programs
// exercise the pass.
//
// It returns the number of loops unrolled.
func (c *funcCompiler) unrollLoops() (count int) {
	fn := c.fn()
	g := cfg.New(fn)
	// Reserve room in the region for the loop-header boundary, a handful
	// of live-out checkpoints, and the closing boundary slots.
	const ckptHeadroom = 8
	budget := c.cfg.StoreThreshold - isa.BoundaryStores - ckptHeadroom

	for _, l := range g.NaturalLoops() {
		if len(l.Body) != 1 || len(l.Latches) != 1 || l.Latches[0] != l.Header {
			continue // not a self-loop
		}
		blk := fn.Blocks[l.Header]
		term := blk.Terminator()
		if term.Op != isa.Branch {
			continue
		}
		backIsThen := term.Target == l.Header
		if !backIsThen && term.Target2 != l.Header {
			continue // latch does not branch back (cannot happen for a self-loop)
		}
		// Split body from the leading loop-header boundary (inserted by
		// the initial pass) and from the trailing branch; reject bodies
		// with calls or syncs — those force region ends anyway.
		body := blk.Instrs[:len(blk.Instrs)-1]
		var lead []isa.Instr
		for len(body) > 0 && body[0].Op == isa.Boundary {
			lead = append(lead, body[0])
			body = body[1:]
		}
		stores, ok := 0, true
		for i := range body {
			if body[i].Op == isa.Call || body[i].Op.IsSync() || body[i].Op == isa.Boundary {
				ok = false
				break
			}
			stores += body[i].Op.PersistStores()
		}
		if !ok || stores == 0 {
			continue
		}
		factor := budget / stores
		if factor > c.cfg.MaxUnroll {
			factor = c.cfg.MaxUnroll
		}
		if factor < 2 {
			continue
		}

		// Build the unrolled chain: the header keeps its boundary and the
		// first copy; each further copy lives in a fresh block ending in
		// the replicated exit test; the last copy branches back to the
		// header.
		copies := make([]int, factor-1)
		for i := range copies {
			fn.Blocks = append(fn.Blocks, &isa.Block{})
			copies[i] = len(fn.Blocks) - 1
		}
		// The replicated branch keeps its exit edge; only the back edge is
		// redirected to chain the copies.
		link := func(b *isa.Block, next int) {
			br := *term
			if backIsThen {
				br.Target = next
			} else {
				br.Target2 = next
			}
			b.Instrs = append(b.Instrs, br)
		}
		// Rebuild the header block.
		hdr := append([]isa.Instr{}, lead...)
		hdr = append(hdr, body...)
		blkCopy := append([]isa.Instr{}, body...) // template for copies
		blk.Instrs = hdr
		link(blk, copies[0])
		for i, cb := range copies {
			nb := fn.Blocks[cb]
			nb.Instrs = append(nb.Instrs, blkCopy...)
			next := l.Header
			if i+1 < len(copies) {
				next = copies[i+1]
			}
			link(nb, next)
		}
		count++
	}
	return count
}
