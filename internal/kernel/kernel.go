// Package kernel defines a small intermediate representation for GPGPU
// kernels: per-warp instruction streams with register dependences and
// per-thread address expressions.
//
// The simulator is trace-driven in spirit (the paper drove its simulator
// with GPUOcelot PTX traces); here the "trace" is generated on the fly by
// interpreting these tiny programs per warp, which reproduces the
// properties prefetchers care about — per-PC per-warp address streams,
// warp interleaving, and coalescing behaviour — without shipping
// proprietary traces.
package kernel

import (
	"errors"
	"fmt"
	"math/bits"
)

// Reg names a per-thread register. Register 0 is reserved as "no register".
type Reg uint8

// NoReg marks an absent operand.
const NoReg Reg = 0

// MaxReg is the highest register a Reg can name, so a program allocates
// at most MaxReg registers besides NoReg.
const MaxReg = 255

// OpClass classifies instructions by their issue behaviour.
type OpClass uint8

const (
	// OpALU is a generic computational warp-instruction (4-cycle class).
	OpALU OpClass = iota
	// OpIMul is an integer multiply (16-cycle class, Table II).
	OpIMul
	// OpFDiv is a floating divide (32-cycle class, Table II).
	OpFDiv
	// OpLoad reads global memory into Dst.
	OpLoad
	// OpStore writes global memory; nothing depends on it.
	OpStore
	// OpPrefetch is a non-binding software prefetch into the prefetch
	// cache (the Fermi-style instruction of Section II-C1).
	OpPrefetch
	// OpLoopBack jumps back to Target while loop trips remain.
	OpLoopBack
)

// String implements fmt.Stringer.
func (op OpClass) String() string {
	switch op {
	case OpALU:
		return "alu"
	case OpIMul:
		return "imul"
	case OpFDiv:
		return "fdiv"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpPrefetch:
		return "prefetch"
	case OpLoopBack:
		return "loopback"
	default:
		return fmt.Sprintf("OpClass(%d)", uint8(op))
	}
}

// IsMemory reports whether the op generates memory transactions.
func (op OpClass) IsMemory() bool {
	return op == OpLoad || op == OpStore || op == OpPrefetch
}

// arrayRegion spaces arrays far apart so their streams never collide.
const arrayRegion uint64 = 1 << 28 // 256 MB

// ArrayBase returns the base address of array id.
func ArrayBase(id int) uint64 {
	return uint64(id+1) * arrayRegion
}

// Access is a per-thread address expression:
//
//	tid   = (warpGID + WarpAhead) * warpSize + lane
//	iter' = iter + IterAhead
//	addr  = ArrayBase(Array) + Offset + tid*LaneStrideB + iter'*IterStrideB
//
// optionally scrambled by a hash within Span bytes (irregular patterns).
// WarpAhead/IterAhead are used by the software prefetching transforms:
// inter-thread prefetching targets the next warp's addresses (WarpAhead),
// conventional stride prefetching targets future iterations (IterAhead).
type Access struct {
	Array       int
	Offset      uint64
	LaneStrideB uint64 // bytes between consecutive thread ids
	IterStrideB uint64 // bytes advanced per loop iteration
	WarpAhead   int    // prefetch-for-other-warp displacement (IP)
	IterAhead   int    // prefetch-ahead displacement in iterations
	Hash        bool   // scramble addresses (irregular access)
	Span        uint64 // wrap addresses within this many bytes (0 = 64 MB)

	// WarpPeriod, when non-zero, folds the warp index modulo this value
	// before address generation: groups of WarpPeriod warps read the
	// same data. This models inputs shared across threads (weight
	// vectors, broadcast tables) whose re-fetches a cache can absorb.
	WarpPeriod int
}

// defaultSpan bounds generated addresses when Span is unset.
const defaultSpan = 64 << 20

func (a *Access) span() uint64 {
	if a.Span != 0 {
		return a.Span
	}
	return defaultSpan
}

// hash64 is a cheap multiplicative scrambler (splitmix-like).
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// offset is lane's byte offset within its array before the span fold,
// in wrapping uint64 arithmetic.
func (a *Access) offset(warpGID, warpSize, lane, iter int) uint64 {
	w := warpGID + a.WarpAhead
	if a.WarpPeriod > 0 {
		w %= a.WarpPeriod
	}
	tid := uint64(w)*uint64(warpSize) + uint64(lane)
	it := uint64(iter + a.IterAhead)
	return a.Offset + tid*a.LaneStrideB + it*a.IterStrideB
}

// LaneAddr computes the byte address touched by one lane. It is the
// reference definition Transactions is tested against.
func (a *Access) LaneAddr(warpGID, warpSize, lane, iter int) uint64 {
	off := a.offset(warpGID, warpSize, lane, iter)
	if a.Hash {
		off = hash64(off) % a.span()
	} else {
		off %= a.span()
	}
	return ArrayBase(a.Array) + off
}

// Transactions appends to buf the distinct block-aligned addresses touched
// by a full warp executing this access, in first-touch order, and returns
// the extended slice. This models the 8800GT-era coalescer: one memory
// transaction per distinct block.
//
// The result is LaneAddr's, lane by lane, without a division per lane.
// Lane k's unfolded offset is base + k*LaneStrideB, where base is lane
// 0's (uint64 arithmetic wraps identically either way), so the warp term
// and its WarpPeriod fold are computed once. A hashed offset is folded
// into the span per lane, with a mask when the span is a power of two.
// A plain offset is stepped modulo the span with one add and a
// conditional subtract; that equals folding base + k*LaneStrideB only if
// the sum never wraps past 2^64, so a warp whose last lane would wrap
// takes the per-lane LaneAddr path instead.
func (a *Access) Transactions(warpGID, warpSize, iter, blockBytes int, buf []uint64) []uint64 {
	d := dedup{start: len(buf), sorted: true}
	mask := ^(uint64(blockBytes) - 1)
	arr := ArrayBase(a.Array)
	span := a.span()
	stride := a.LaneStrideB
	off := a.offset(warpGID, warpSize, 0, iter)
	if a.Hash {
		pow2 := span&(span-1) == 0
		for lane := 0; lane < warpSize; lane++ {
			h := hash64(off)
			if pow2 {
				h &= span - 1
			} else {
				h %= span
			}
			buf = d.add(buf, (arr+h)&mask)
			off += stride
		}
		return buf
	}
	hi, lo := bits.Mul64(uint64(warpSize-1), stride)
	if _, carry := bits.Add64(off, lo, 0); hi != 0 || carry != 0 {
		for lane := 0; lane < warpSize; lane++ {
			buf = d.add(buf, a.LaneAddr(warpGID, warpSize, lane, iter)&mask)
		}
		return buf
	}
	// o is lane k's offset mod span; step = stride mod span, and
	// o >= span-step is o+step >= span, tested without overflowing.
	o, step := off%span, stride%span
	wrap := span - step
	for lane := 0; lane < warpSize; lane++ {
		buf = d.add(buf, (arr+o)&mask)
		if o >= wrap {
			o -= wrap
		} else {
			o += step
		}
	}
	return buf
}

// dedup appends blocks to buf[start:] unless already there, keeping
// first-touch order. While the blocks arrive in ascending order, as a
// plain access's do until its offset wraps round the span, buf[start:]
// is strictly increasing and a repeat can only be its last block; after
// that it scans newest first, since neighbouring lanes mostly share a
// block.
type dedup struct {
	start  int
	sorted bool
}

func (d *dedup) add(buf []uint64, blk uint64) []uint64 {
	n := len(buf)
	if d.sorted {
		switch {
		case n == d.start || blk > buf[n-1]:
			return append(buf, blk)
		case blk == buf[n-1]:
			return buf
		}
		d.sorted = false
	}
	for i := n - 1; i >= d.start; i-- {
		if buf[i] == blk {
			return buf
		}
	}
	return append(buf, blk)
}

// Instr is one warp-instruction.
type Instr struct {
	Op     OpClass
	Dst    Reg // written register (loads, ALU); NoReg otherwise
	Src1   Reg // read registers; NoReg when absent
	Src2   Reg
	Mem    *Access // for memory ops
	Target int     // for OpLoopBack: index of the loop's first body instruction
}

// Program is a straight-line kernel with at most one loop.
type Program struct {
	Name      string
	Instrs    []Instr
	NumRegs   int // registers allocated (including the reserved NoReg)
	NumArrays int
	LoopTrips int // times the loop body executes; 0 or 1 means no repetition
}

// HasLoop reports whether the program contains a back edge.
func (p *Program) HasLoop() bool {
	for i := range p.Instrs {
		if p.Instrs[i].Op == OpLoopBack {
			return true
		}
	}
	return false
}

// Counts tallies warp-instructions per dynamic execution of one warp,
// expanding the loop.
type Counts struct {
	Compute  int // ALU+IMUL+FDIV warp-instructions
	Memory   int // loads + stores (demand memory instructions)
	Loads    int
	Prefetch int
	Total    int // all dynamic warp-instructions including branches
}

// DynamicCounts returns the per-warp dynamic instruction mix.
func (p *Program) DynamicCounts() Counts {
	var static Counts
	loopStart := -1
	for i := range p.Instrs {
		if p.Instrs[i].Op == OpLoopBack {
			loopStart = p.Instrs[i].Target
		}
	}
	add := func(c *Counts, in *Instr) {
		c.Total++
		switch in.Op {
		case OpALU, OpIMul, OpFDiv:
			c.Compute++
		case OpLoad:
			c.Memory++
			c.Loads++
		case OpStore:
			c.Memory++
		case OpPrefetch:
			c.Prefetch++
		}
	}
	if loopStart < 0 {
		for i := range p.Instrs {
			add(&static, &p.Instrs[i])
		}
		return static
	}
	trips := p.LoopTrips
	if trips < 1 {
		trips = 1
	}
	var pre, body, post Counts
	inBody := false
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if i == loopStart {
			inBody = true
		}
		switch {
		case inBody:
			add(&body, in)
			if in.Op == OpLoopBack {
				inBody = false
			}
		case i < loopStart:
			add(&pre, in)
		default:
			add(&post, in)
		}
	}
	return Counts{
		Compute:  pre.Compute + body.Compute*trips + post.Compute,
		Memory:   pre.Memory + body.Memory*trips + post.Memory,
		Loads:    pre.Loads + body.Loads*trips + post.Loads,
		Prefetch: pre.Prefetch + body.Prefetch*trips + post.Prefetch,
		Total:    pre.Total + body.Total*trips + post.Total,
	}
}

// Validate reports structural problems in the program.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return errors.New("kernel: empty program")
	}
	branches := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op.IsMemory() && in.Mem == nil {
			return fmt.Errorf("kernel: instr %d (%v) missing Access", i, in.Op)
		}
		if !in.Op.IsMemory() && in.Mem != nil {
			return fmt.Errorf("kernel: instr %d (%v) has stray Access", i, in.Op)
		}
		if in.Mem != nil && in.Mem.Array >= p.NumArrays {
			return fmt.Errorf("kernel: instr %d references array %d of %d", i, in.Mem.Array, p.NumArrays)
		}
		for _, r := range []Reg{in.Dst, in.Src1, in.Src2} {
			if int(r) >= p.NumRegs {
				return fmt.Errorf("kernel: instr %d uses reg %d of %d", i, r, p.NumRegs)
			}
		}
		switch in.Op {
		case OpLoopBack:
			branches++
			if in.Target < 0 || in.Target >= i {
				return fmt.Errorf("kernel: instr %d branch target %d not a back edge", i, in.Target)
			}
		case OpLoad:
			if in.Dst == NoReg {
				return fmt.Errorf("kernel: instr %d load without destination", i)
			}
		case OpStore, OpPrefetch:
			if in.Dst != NoReg {
				return fmt.Errorf("kernel: instr %d (%v) must not write a register", i, in.Op)
			}
		}
	}
	if branches > 1 {
		return fmt.Errorf("kernel: %d back edges; at most one loop supported", branches)
	}
	if branches == 1 && p.LoopTrips < 1 {
		return errors.New("kernel: loop present but LoopTrips < 1")
	}
	return nil
}

// Clone deep-copies the program so transforms can mutate it safely.
func (p *Program) Clone() *Program {
	q := *p
	q.Instrs = make([]Instr, len(p.Instrs))
	for i := range p.Instrs {
		q.Instrs[i] = p.Instrs[i]
		if p.Instrs[i].Mem != nil {
			m := *p.Instrs[i].Mem
			q.Instrs[i].Mem = &m
		}
	}
	return &q
}
