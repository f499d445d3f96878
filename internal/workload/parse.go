package workload

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"mtprefetch/internal/kernel"
)

// ParseSpec reads a benchmark description in the mtprefetch kernel text
// format, so users can study their own workloads without writing Go:
//
//	kernel mykernel warps=1024 blocks=128 maxblk=2 regs=16 class=stride
//	loop 16
//	  load   A0 lane=4 iter=128
//	  load   A0 lane=4 iter=128 offset=128
//	  compute 8
//	  imul 1
//	  prefetch A0 lane=4 iter=128 iterahead=1
//	  store  A1 lane=4 iter=128
//	end
//
// Lines are instructions in program order; `#` starts a comment. Loads
// and stores name an array (A0, A1, ...) and take lane=/iter=/offset=
// byte strides, plus `hash` (irregular) and `shared=N` (data shared by
// groups of N warps). `loop N`/`end` bracket the single loop. Values and
// classes mirror the fields of Spec and kernel.Access.
func ParseSpec(src string) (*Spec, error) {
	s := &Spec{Suite: "user", Class: MP, RegsPerThread: 16}
	b := kernel.NewBuilder("user")
	var lastVal kernel.Reg
	inLoop := false
	sawKernel := false
	sc := bufio.NewScanner(strings.NewReader(src))
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d: %s", lineno, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "kernel":
			if sawKernel {
				return nil, fail("duplicate kernel header")
			}
			sawKernel = true
			if len(fields) < 2 {
				return nil, fail("kernel needs a name")
			}
			s.Name = fields[1]
			for _, f := range fields[2:] {
				k, v, ok := strings.Cut(f, "=")
				if !ok {
					return nil, fail("bad kernel attribute %q", f)
				}
				switch k {
				case "warps", "blocks", "maxblk", "regs":
					n, err := strconv.Atoi(v)
					if err != nil || n <= 0 {
						return nil, fail("bad %s=%q", k, v)
					}
					switch k {
					case "warps":
						s.TotalWarps = n
					case "blocks":
						s.Blocks = n
					case "maxblk":
						s.MaxBlocksPerCore = n
					case "regs":
						s.RegsPerThread = n
					}
				case "class":
					switch v {
					case "stride":
						s.Class = Stride
					case "mp":
						s.Class = MP
					case "uncoal":
						s.Class = Uncoal
					case "non-intensive":
						s.Class = NonIntensive
					default:
						return nil, fail("unknown class %q", v)
					}
				default:
					return nil, fail("unknown kernel attribute %q", k)
				}
			}
		case "loop":
			if !sawKernel {
				return nil, fail("loop before kernel header")
			}
			if inLoop {
				return nil, fail("nested loop")
			}
			if len(fields) != 2 {
				return nil, fail("loop needs a trip count")
			}
			trips, err := strconv.Atoi(fields[1])
			if err != nil || trips < 1 {
				return nil, fail("bad trip count %q", fields[1])
			}
			b.BeginLoop(trips)
			inLoop = true
		case "end":
			if !inLoop {
				return nil, fail("end without loop")
			}
			b.EndLoop()
			inLoop = false
		case "load", "store", "prefetch":
			if !sawKernel {
				return nil, fail("%s before kernel header", fields[0])
			}
			if len(fields) < 2 {
				return nil, fail("%s needs an array", fields[0])
			}
			acc, err := parseAccess(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			switch fields[0] {
			case "load":
				lastVal = b.Load(*acc)
			case "store":
				b.Store(*acc, lastVal)
			case "prefetch":
				b.Prefetch(*acc)
			}
		case "compute", "imul", "fdiv":
			if len(fields) != 2 {
				return nil, fail("%s needs a count", fields[0])
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return nil, fail("bad count %q", fields[1])
			}
			// Each instruction takes a register: a count past the
			// register file can never build.
			if n > kernel.MaxReg {
				return nil, fail("%s %d exceeds the %d registers a kernel has", fields[0], n, kernel.MaxReg)
			}
			switch fields[0] {
			case "compute":
				lastVal = b.Compute(n, lastVal)
			case "imul":
				for i := 0; i < n; i++ {
					lastVal = b.IMul(lastVal)
				}
			case "fdiv":
				for i := 0; i < n; i++ {
					lastVal = b.FDiv(lastVal)
				}
			}
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawKernel {
		return nil, fmt.Errorf("missing kernel header")
	}
	if inLoop {
		return nil, fmt.Errorf("unclosed loop")
	}
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	prog.Name = s.Name
	s.Program = prog
	if s.TotalWarps == 0 || s.Blocks == 0 {
		return nil, fmt.Errorf("kernel header must set warps= and blocks=")
	}
	if s.MaxBlocksPerCore == 0 {
		s.MaxBlocksPerCore = 1
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseAccess(fields []string) (*kernel.Access, error) {
	name := fields[0]
	if len(name) < 2 || name[0] != 'A' {
		return nil, fmt.Errorf("array must be named A<n>, got %q", name)
	}
	idx, err := strconv.Atoi(name[1:])
	if err != nil || idx < 0 {
		return nil, fmt.Errorf("bad array name %q", name)
	}
	acc := &kernel.Access{Array: idx}
	for _, f := range fields[1:] {
		if f == "hash" {
			acc.Hash = true
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad access attribute %q", f)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad value in %q", f)
		}
		switch k {
		case "lane":
			acc.LaneStrideB = uint64(n)
		case "iter":
			acc.IterStrideB = uint64(n)
		case "offset":
			acc.Offset = uint64(n)
		case "span":
			acc.Span = uint64(n)
		case "shared":
			acc.WarpPeriod = n
		case "iterahead":
			acc.IterAhead = n
		case "warpahead":
			acc.WarpAhead = n
		default:
			return nil, fmt.Errorf("unknown access attribute %q", k)
		}
	}
	return acc, nil
}
