package kernel

import "fmt"

// Builder assembles Programs. Register names are allocated monotonically;
// these kernels are short enough that reuse is unnecessary. After its
// first error a builder appends nothing more, so a caller that asks for
// more than a program can hold fails fast instead of growing it.
type Builder struct {
	p        Program
	nextReg  int // next register to allocate; NumRegs once built
	loopOpen bool
	loopAt   int
	err      error
}

// NewBuilder starts an empty program.
func NewBuilder(name string) *Builder {
	return &Builder{
		p:       Program{Name: name, LoopTrips: 1},
		nextReg: 1, // register 0 is NoReg
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("kernel builder %q: %s", b.p.Name, fmt.Sprintf(format, args...))
	}
}

func (b *Builder) alloc() Reg {
	if b.nextReg > MaxReg {
		b.fail("register file exhausted")
		return NoReg
	}
	r := Reg(b.nextReg)
	b.nextReg++
	return r
}

// emit appends in unless the builder has already failed.
func (b *Builder) emit(in Instr) {
	if b.err == nil {
		b.p.Instrs = append(b.p.Instrs, in)
	}
}

func (b *Builder) noteArray(a *Access) {
	if a.Array >= b.p.NumArrays {
		b.p.NumArrays = a.Array + 1
	}
}

// Load appends a global load and returns its destination register.
func (b *Builder) Load(a Access) Reg {
	dst := b.alloc()
	acc := a
	b.noteArray(&acc)
	b.emit(Instr{Op: OpLoad, Dst: dst, Mem: &acc})
	return dst
}

// Store appends a global store of src.
func (b *Builder) Store(a Access, src Reg) {
	acc := a
	b.noteArray(&acc)
	b.emit(Instr{Op: OpStore, Src1: src, Mem: &acc})
}

// Prefetch appends a non-binding software prefetch.
func (b *Builder) Prefetch(a Access) {
	acc := a
	b.noteArray(&acc)
	b.emit(Instr{Op: OpPrefetch, Mem: &acc})
}

// op appends a computational instruction reading srcs, returns its dst.
func (b *Builder) op(class OpClass, srcs ...Reg) Reg {
	in := Instr{Op: class, Dst: b.alloc()}
	if len(srcs) > 0 {
		in.Src1 = srcs[0]
	}
	if len(srcs) > 1 {
		in.Src2 = srcs[1]
	}
	if len(srcs) > 2 {
		b.fail("at most two sources per instruction")
	}
	b.emit(in)
	return in.Dst
}

// ALU appends a 4-cycle-class compute instruction.
func (b *Builder) ALU(srcs ...Reg) Reg { return b.op(OpALU, srcs...) }

// IMul appends a 16-cycle-class integer multiply.
func (b *Builder) IMul(srcs ...Reg) Reg { return b.op(OpIMul, srcs...) }

// FDiv appends a 32-cycle-class floating divide.
func (b *Builder) FDiv(srcs ...Reg) Reg { return b.op(OpFDiv, srcs...) }

// Compute appends n chained ALU instructions consuming dep (models a
// compute phase that depends on loaded data) and returns the final value.
// It stops at the first error, so an n past the register file costs no
// more than the registers left.
func (b *Builder) Compute(n int, dep Reg) Reg {
	r := dep
	for i := 0; i < n && b.err == nil; i++ {
		r = b.ALU(r)
	}
	return r
}

// BeginLoop marks the start of the (single) loop body executed trips times.
func (b *Builder) BeginLoop(trips int) {
	if b.loopOpen {
		b.fail("nested loops are not supported")
		return
	}
	if b.p.HasLoop() {
		b.fail("only one loop per program")
		return
	}
	if trips < 1 {
		b.fail("loop trips must be >= 1, got %d", trips)
		return
	}
	b.loopOpen = true
	b.loopAt = len(b.p.Instrs)
	b.p.LoopTrips = trips
}

// EndLoop closes the loop body with a back edge.
func (b *Builder) EndLoop() {
	if !b.loopOpen {
		b.fail("EndLoop without BeginLoop")
		return
	}
	b.loopOpen = false
	b.emit(Instr{Op: OpLoopBack, Target: b.loopAt})
}

// Build validates and returns the finished program.
func (b *Builder) Build() (*Program, error) {
	if b.loopOpen {
		b.fail("unclosed loop")
	}
	if b.err != nil {
		return nil, b.err
	}
	b.p.NumRegs = b.nextReg
	if err := b.p.Validate(); err != nil {
		return nil, err
	}
	prog := b.p
	return &prog, nil
}

// MustBuild is Build that panics on error. It is intended for tests and
// examples only; production callers (the workload suite) use Build so a
// kernel-template bug surfaces as an error instead of a crash.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
