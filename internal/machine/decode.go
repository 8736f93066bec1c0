package machine

import "lightwsp/internal/isa"

// decoded is one instruction of the program a machine runs, decoded once
// when the machine is built: the instruction and the source registers it
// reads, as Instr.Uses lists them. A call reads at most isa.MaxArgs
// registers; every other instruction reads at most two.
type decoded struct {
	in   *isa.Instr
	uses [isa.MaxArgs]isa.Reg
	n    uint8 // registers in uses
}

// decode builds a machine's own table of decoded instructions, indexed like
// the program: table[f][b][i] is instruction i of block b of function f. The
// entries point into p's instructions, which the machine only reads; the
// table itself belongs to one machine and is never shared.
func decode(p *isa.Program) [][][]decoded {
	flat := make([]decoded, 0, p.NumInstrs())
	table := make([][][]decoded, len(p.Funcs))
	for fi, f := range p.Funcs {
		table[fi] = make([][]decoded, len(f.Blocks))
		for bi, b := range f.Blocks {
			start := len(flat)
			for ii := range b.Instrs {
				d := decoded{in: &b.Instrs[ii]}
				d.n = uint8(len(d.in.Uses(d.uses[:0])))
				flat = append(flat, d)
			}
			table[fi][bi] = flat[start:len(flat):len(flat)]
		}
	}
	return table
}
