// Package swpref implements software prefetching as kernel transforms
// (Section III-A of the paper), mirroring what a programmer or compiler
// would do to the CUDA source:
//
//   - Register prefetching (Ryoo et al. [28]): binding loads are software-
//     pipelined one iteration ahead into registers. No prefetch cache is
//     needed, but the extra registers reduce occupancy — the transform
//     lowers MaxBlocksPerCore accordingly.
//   - Stride prefetching: non-binding prefetch instructions fetch the next
//     iteration's addresses into the prefetch cache. Loop kernels only.
//   - Inter-thread prefetching (IP): each warp prefetches the addresses
//     the *next* warp will demand (Fig. 4) — the transform that works for
//     loop-free, massively-parallel kernels.
//   - MT-SWP: stride + IP combined (the paper's software contribution).
package swpref

import (
	"fmt"

	"mtprefetch/internal/kernel"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/simerr"
	"mtprefetch/internal/workload"
)

// Mode selects a software prefetching mechanism.
type Mode uint8

const (
	// None leaves the kernel untouched (the baseline binary).
	None Mode = iota
	// Register is binding register prefetching.
	Register
	// Stride is non-binding next-iteration prefetching.
	Stride
	// IP is inter-thread (next-warp) prefetching.
	IP
	// MTSWP combines Stride and IP.
	MTSWP
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Register:
		return "register"
	case Stride:
		return "stride"
	case IP:
		return "ip"
	case MTSWP:
		return "mt-swp"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// The transforms' fixed parameters: stride prefetches target the next
// iteration, IP prefetches the next warp (tid+32 in Fig. 4), and
// register prefetching costs two registers per pipelined load.
const (
	iterAhead   = 1
	warpAhead   = 1
	regsPerLoad = 2
)

// Stats reports what a transform did.
type Stats struct {
	PrefetchInstrs  int // static prefetch instructions inserted
	PipelinedLoads  int // loads converted by register prefetching
	RegistersAdded  int // per-thread register cost
	OccupancyBefore int // MaxBlocksPerCore before
	OccupancyAfter  int // MaxBlocksPerCore after (register pressure)
}

// SourceOf attributes an OpPrefetch access to the transform that inserted
// it: applyIP marks its insertions with WarpAhead, applyStride with
// IterAhead only — the distinction MT-SWP needs to split its two halves
// in per-source reports.
func SourceOf(a *kernel.Access) memreq.Source {
	if a == nil {
		return memreq.SrcNone
	}
	if a.WarpAhead > 0 {
		return memreq.SrcSWIP
	}
	return memreq.SrcSWStride
}

// Apply returns a transformed copy of the spec. The input spec is never
// modified. Transforms that do not apply (e.g. stride prefetching on a
// loop-free kernel) return the spec unchanged — running the "same binary".
func Apply(s *workload.Spec, mode Mode) (*workload.Spec, Stats, error) {
	st := Stats{OccupancyBefore: s.MaxBlocksPerCore, OccupancyAfter: s.MaxBlocksPerCore}
	if mode == None {
		return s, st, nil
	}
	t := *s
	p := s.Program.Clone()
	switch mode {
	case Register:
		applyRegister(&t, p, &st)
	case Stride:
		applyStride(p, &st)
	case IP:
		applyIP(p, &st)
	case MTSWP:
		applyStride(p, &st)
		applyIP(p, &st)
	}
	if err := p.Validate(); err != nil {
		// Transforms only rearrange validated programs; a failure here is
		// a bug in this package, surfaced as a typed invariant error so a
		// sweep degrades to one ERR cell instead of dying.
		return nil, st, &simerr.InvariantError{
			Component: "swpref", Name: "transform-validity",
			Detail: fmt.Sprintf("%v transform of %s produced an invalid program: %v", mode, s.Name, err),
		}
	}
	t.Program = p
	return &t, st, nil
}

// loopBounds returns the [start, end] instruction indices of the loop
// body, with ok=false for straight-line programs. end is the OpLoopBack.
func loopBounds(p *kernel.Program) (start, end int, ok bool) {
	for i := range p.Instrs {
		if p.Instrs[i].Op == kernel.OpLoopBack {
			return p.Instrs[i].Target, i, true
		}
	}
	return 0, 0, false
}

// applyStride inserts, at the top of the loop body, one non-binding
// prefetch per strided in-loop load, targeting the next iteration.
func applyStride(p *kernel.Program, st *Stats) {
	start, end, ok := loopBounds(p)
	if !ok {
		return // no loop: nothing to prefetch ahead of (Fig. 3)
	}
	var pf []kernel.Instr
	for i := start; i < end; i++ {
		in := &p.Instrs[i]
		if in.Op != kernel.OpLoad || in.Mem.IterStrideB == 0 {
			continue
		}
		acc := *in.Mem
		acc.IterAhead += iterAhead
		pf = append(pf, kernel.Instr{Op: kernel.OpPrefetch, Mem: &acc})
	}
	insertInside(p, start, pf)
	st.PrefetchInstrs += len(pf)
}

// applyIP inserts one prefetch per load, targeting the corresponding
// thread of the next warp. For loop kernels the prefetch sits in the
// body (covering the same iteration of the next warp); for straight-line
// kernels it sits at the top of the kernel, as in Fig. 4a.
func applyIP(p *kernel.Program, st *Stats) {
	start, end, hasLoop := loopBounds(p)
	lo, hi := 0, len(p.Instrs)
	if hasLoop {
		lo, hi = start, end
	}
	var pf []kernel.Instr
	for i := lo; i < hi; i++ {
		in := &p.Instrs[i]
		if in.Op != kernel.OpLoad {
			continue
		}
		acc := *in.Mem
		acc.WarpAhead += warpAhead
		pf = append(pf, kernel.Instr{Op: kernel.OpPrefetch, Mem: &acc})
	}
	insertInside(p, lo, pf)
	st.PrefetchInstrs += len(pf)
}

// applyRegister software-pipelines every strided in-loop load one
// iteration ahead (binding register prefetching): a prologue load before
// the loop fills the register for iteration 0; the in-loop load moves to
// the *end* of the body — after its consumers — and refills the same
// register for the next iteration. Consumers therefore read a value that
// has had a full iteration to arrive, and the per-warp scoreboard enforces
// exactly the one-iteration slack. The extra pipeline registers reduce
// occupancy.
func applyRegister(s *workload.Spec, p *kernel.Program, st *Stats) {
	start, end, ok := loopBounds(p)
	if !ok {
		return // loop-free kernels have no iterations to pipeline
	}
	var prologue, refills []kernel.Instr
	var body []kernel.Instr
	for i := start; i < end; i++ {
		in := p.Instrs[i]
		if in.Op == kernel.OpLoad && in.Mem.IterStrideB != 0 {
			// Prologue: load iteration 0's value into the register.
			acc0 := *in.Mem
			prologue = append(prologue, kernel.Instr{Op: kernel.OpLoad, Dst: in.Dst, Mem: &acc0})
			// Refill at end of body: next iteration's value.
			acc1 := *in.Mem
			acc1.IterAhead++
			refills = append(refills, kernel.Instr{Op: kernel.OpLoad, Dst: in.Dst, Mem: &acc1})
			st.PipelinedLoads++
			continue
		}
		body = append(body, in)
	}
	if len(prologue) == 0 {
		return
	}
	out := make([]kernel.Instr, 0, len(p.Instrs)+len(prologue))
	out = append(out, p.Instrs[:start]...)
	out = append(out, prologue...)
	newStart := len(out)
	out = append(out, body...)
	out = append(out, refills...)
	out = append(out, kernel.Instr{Op: kernel.OpLoopBack, Target: newStart})
	out = append(out, p.Instrs[end+1:]...)
	p.Instrs = out

	st.RegistersAdded = st.PipelinedLoads * regsPerLoad
	// Occupancy with the fatter register footprint: the register file was
	// sized to fit the original kernel at its published occupancy.
	regs := s.RegsPerThread
	newBlocks := s.MaxBlocksPerCore * regs / (regs + st.RegistersAdded)
	if newBlocks < 1 {
		newBlocks = 1
	}
	s.MaxBlocksPerCore = newBlocks
	st.OccupancyAfter = newBlocks
}

// insertInside splices instrs into the program at index at, keeping them
// inside any loop whose body starts at that index (the back edge continues
// to target the first inserted instruction).
func insertInside(p *kernel.Program, at int, instrs []kernel.Instr) {
	if len(instrs) == 0 {
		return
	}
	out := make([]kernel.Instr, 0, len(p.Instrs)+len(instrs))
	out = append(out, p.Instrs[:at]...)
	out = append(out, instrs...)
	out = append(out, p.Instrs[at:]...)
	for i := range out {
		if out[i].Op == kernel.OpLoopBack && out[i].Target > at {
			out[i].Target += len(instrs)
		}
	}
	p.Instrs = out
}
