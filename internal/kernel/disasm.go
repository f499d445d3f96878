package kernel

import (
	"fmt"
	"strings"
)

// String renders a human-readable disassembly of the program, as
// internal/core's ExampleRun_customKernel prints it. Loop bodies are
// indented.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s (regs=%d, arrays=%d, trips=%d)\n",
		p.Name, p.NumRegs, p.NumArrays, p.LoopTrips)
	loopStart := -1
	for i := range p.Instrs {
		if p.Instrs[i].Op == OpLoopBack {
			loopStart = p.Instrs[i].Target
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		indent := ""
		if loopStart >= 0 && i >= loopStart {
			indent = "  "
		}
		fmt.Fprintf(&b, "%3d: %s%s\n", i, indent, in.String())
	}
	return b.String()
}

// String renders one instruction.
func (in *Instr) String() string {
	switch in.Op {
	case OpLoad:
		return fmt.Sprintf("r%-3d = load  %s", in.Dst, in.Mem.String())
	case OpStore:
		return fmt.Sprintf("store r%d -> %s", in.Src1, in.Mem.String())
	case OpPrefetch:
		return fmt.Sprintf("prefetch     %s", in.Mem.String())
	case OpLoopBack:
		return fmt.Sprintf("loop -> %d", in.Target)
	case OpALU, OpIMul, OpFDiv:
		srcs := ""
		if in.Src1 != NoReg {
			srcs = fmt.Sprintf(" r%d", in.Src1)
		}
		if in.Src2 != NoReg {
			srcs += fmt.Sprintf(" r%d", in.Src2)
		}
		return fmt.Sprintf("r%-3d = %s%s", in.Dst, in.Op, srcs)
	default:
		return in.Op.String()
	}
}

// String renders an access expression compactly.
func (a *Access) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("A%d", a.Array))
	if a.Offset != 0 {
		parts = append(parts, fmt.Sprintf("+%d", a.Offset))
	}
	if a.LaneStrideB != 0 {
		parts = append(parts, fmt.Sprintf("lane*%d", a.LaneStrideB))
	}
	if a.IterStrideB != 0 {
		parts = append(parts, fmt.Sprintf("iter*%d", a.IterStrideB))
	}
	if a.WarpAhead != 0 {
		parts = append(parts, fmt.Sprintf("warp+%d", a.WarpAhead))
	}
	if a.IterAhead != 0 {
		parts = append(parts, fmt.Sprintf("iter+%d", a.IterAhead))
	}
	if a.WarpPeriod != 0 {
		parts = append(parts, fmt.Sprintf("shared/%d", a.WarpPeriod))
	}
	if a.Hash {
		parts = append(parts, "hashed")
	}
	return "[" + strings.Join(parts, " ") + "]"
}
