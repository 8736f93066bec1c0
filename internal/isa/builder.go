package isa

import "fmt"

// Builder assembles a Program incrementally. It exists so the workload
// generator and the compiler tests can construct programs without writing
// struct literals by hand; it keeps a current function and block and offers
// one method per opcode.
//
// Typical use:
//
//	b := isa.NewBuilder("demo")
//	f := b.Func("main")
//	b.MovImm(1, 0)          // r1 = 0
//	loop := b.NewBlock()
//	b.Jump(loop)
//	...
//	prog, err := b.Build()
type Builder struct {
	prog    *Program
	curFunc *Function
	curBlk  *Block
	err     error
}

// NewBuilder returns a builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{prog: &Program{Name: name}}
}

// Func starts a new function and its entry block, and makes both current.
// It returns the function's index (usable as a Call target).
func (b *Builder) Func(name string) int {
	f := &Function{Name: name}
	b.prog.Funcs = append(b.prog.Funcs, f)
	b.curFunc = f
	b.curBlk = nil
	b.NewBlock()
	return len(b.prog.Funcs) - 1
}

// NewBlock appends a fresh block to the current function, makes it current,
// and returns its index (usable as a branch target).
func (b *Builder) NewBlock() int {
	if b.curFunc == nil {
		b.fail("NewBlock before Func")
		return 0
	}
	blk := &Block{}
	b.curFunc.Blocks = append(b.curFunc.Blocks, blk)
	b.curBlk = blk
	return len(b.curFunc.Blocks) - 1
}

// SwitchTo makes an existing block of the current function current, so
// instructions can be appended to it (e.g. to fill in a loop latch after
// emitting the body).
func (b *Builder) SwitchTo(block int) {
	if b.curFunc == nil || block < 0 || block >= len(b.curFunc.Blocks) {
		b.fail("SwitchTo out of range")
		return
	}
	b.curBlk = b.curFunc.Blocks[block]
}

// CurrentBlock returns the index of the block under construction.
func (b *Builder) CurrentBlock() int {
	for i, blk := range b.curFunc.Blocks {
		if blk == b.curBlk {
			return i
		}
	}
	return -1
}

func (b *Builder) fail(format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf("isa.Builder: "+format, args...)
	}
}

func (b *Builder) emit(in Instr) {
	if b.curBlk == nil {
		b.fail("instruction emitted outside a block")
		return
	}
	if n := len(b.curBlk.Instrs); n > 0 && b.curBlk.Instrs[n-1].Op.IsTerminator() {
		b.fail("instruction %s emitted after terminator", in.String())
		return
	}
	b.curBlk.Instrs = append(b.curBlk.Instrs, in)
}

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(Instr{Op: Nop}) }

// MovImm emits rd = imm.
func (b *Builder) MovImm(rd Reg, imm int64) { b.emit(Instr{Op: MovImm, Rd: rd, Imm: imm}) }

// Mov emits rd = rs.
func (b *Builder) Mov(rd, rs Reg) { b.emit(Instr{Op: Mov, Rd: rd, Rs1: rs}) }

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Add, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// AddImm emits rd = rs1 + imm.
func (b *Builder) AddImm(rd, rs1 Reg, imm int64) {
	b.emit(Instr{Op: AddImm, Rd: rd, Rs1: rs1, Imm: imm})
}

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Sub, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Mul, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// MulImm emits rd = rs1 * imm.
func (b *Builder) MulImm(rd, rs1 Reg, imm int64) {
	b.emit(Instr{Op: MulImm, Rd: rd, Rs1: rs1, Imm: imm})
}

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 Reg) { b.emit(Instr{Op: And, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Or, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Xor, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Shl emits rd = rs1 << rs2.
func (b *Builder) Shl(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Shl, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Shr emits rd = rs1 >> rs2.
func (b *Builder) Shr(rd, rs1, rs2 Reg) { b.emit(Instr{Op: Shr, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// CmpLT emits rd = rs1 < rs2.
func (b *Builder) CmpLT(rd, rs1, rs2 Reg) { b.emit(Instr{Op: CmpLT, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// CmpEQ emits rd = rs1 == rs2.
func (b *Builder) CmpEQ(rd, rs1, rs2 Reg) { b.emit(Instr{Op: CmpEQ, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Load emits rd = mem[rs1+imm].
func (b *Builder) Load(rd, rs1 Reg, imm int64) {
	b.emit(Instr{Op: Load, Rd: rd, Rs1: rs1, Imm: imm})
}

// Store emits mem[rs1+imm] = rs2.
func (b *Builder) Store(rs1 Reg, imm int64, rs2 Reg) {
	b.emit(Instr{Op: Store, Rs1: rs1, Imm: imm, Rs2: rs2})
}

// Jump emits an unconditional branch to block.
func (b *Builder) Jump(block int) { b.emit(Instr{Op: Jump, Target: block}) }

// Branch emits: if rs1 != 0 goto then, else goto els.
func (b *Builder) Branch(rs1 Reg, then, els int) {
	b.emit(Instr{Op: Branch, Rs1: rs1, Target: then, Target2: els})
}

// Call emits a call to function fn passing nargs arguments.
func (b *Builder) Call(fn, nargs int) { b.emit(Instr{Op: Call, Target: fn, Imm: int64(nargs)}) }

// Ret emits a return of rs1.
func (b *Builder) Ret(rs1 Reg) { b.emit(Instr{Op: Ret, Rs1: rs1}) }

// Halt emits a thread halt.
func (b *Builder) Halt() { b.emit(Instr{Op: Halt}) }

// Io emits an irrevocable output of rs1 (§IV-A I/O functions).
func (b *Builder) Io(rs1 Reg) { b.emit(Instr{Op: Io, Rs1: rs1}) }

// Fence emits a full memory fence.
func (b *Builder) Fence() { b.emit(Instr{Op: Fence}) }

// AtomicAdd emits rd = fetch-and-add(mem[rs1+imm], rs2).
func (b *Builder) AtomicAdd(rd, rs1 Reg, imm int64, rs2 Reg) {
	b.emit(Instr{Op: AtomicAdd, Rd: rd, Rs1: rs1, Imm: imm, Rs2: rs2})
}

// LockAcquire emits a lock acquisition on mem[rs1+imm].
func (b *Builder) LockAcquire(rs1 Reg, imm int64) {
	b.emit(Instr{Op: LockAcquire, Rs1: rs1, Imm: imm})
}

// LockRelease emits a lock release on mem[rs1+imm].
func (b *Builder) LockRelease(rs1 Reg, imm int64) {
	b.emit(Instr{Op: LockRelease, Rs1: rs1, Imm: imm})
}

// Build validates and returns the assembled program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// BodyBlocks returns the current function's blocks from index head onward —
// the loop body a generator has emitted so far. The returned slices alias
// the builder's state; callers must not mutate them.
func (b *Builder) BodyBlocks(head int) []*Block {
	return b.curFunc.Blocks[head:]
}
