package workload

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mtprefetch/internal/kernel"
)

const demoKernel = `
# a sliding-window stride kernel
kernel demo warps=1024 blocks=128 maxblk=2 regs=20 class=stride
loop 8
  load   A0 lane=4 iter=128
  load   A0 lane=4 iter=128 offset=128
  compute 6
  imul 1
  store  A1 lane=4 iter=128
end
`

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec(demoKernel)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" || s.TotalWarps != 1024 || s.Blocks != 128 ||
		s.MaxBlocksPerCore != 2 || s.RegsPerThread != 20 || s.Class != Stride {
		t.Fatalf("header parsed wrong: %+v", s)
	}
	if !s.Program.HasLoop() || s.Program.LoopTrips != 8 {
		t.Fatal("loop lost")
	}
	c := s.Program.DynamicCounts()
	if c.Loads != 16 { // 2 loads x 8 trips
		t.Errorf("dynamic loads = %d, want 16", c.Loads)
	}
	if c.Compute != 7*8 { // 6 alu + 1 imul per trip
		t.Errorf("dynamic compute = %d, want 56", c.Compute)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

const accessKernel = `
kernel x warps=32 blocks=32 maxblk=1
load A2 lane=64 hash span=1048576
load A3 lane=4 shared=16
prefetch A2 lane=64 warpahead=1
store A4 lane=4
`

func TestParseSpecAccessAttributes(t *testing.T) {
	s, err := ParseSpec(accessKernel)
	if err != nil {
		t.Fatal(err)
	}
	in := s.Program.Instrs
	if !in[0].Mem.Hash || in[0].Mem.Span != 1<<20 || in[0].Mem.Array != 2 {
		t.Errorf("hash load parsed wrong: %+v", in[0].Mem)
	}
	if in[1].Mem.WarpPeriod != 16 {
		t.Errorf("shared load parsed wrong: %+v", in[1].Mem)
	}
	if in[2].Op != kernel.OpPrefetch || in[2].Mem.WarpAhead != 1 {
		t.Errorf("prefetch parsed wrong: %+v", in[2])
	}
}

// parseErrorCases are malformed specs ParseSpec must reject.
var parseErrorCases = []struct {
	name string
	src  string
}{
	{"empty", ""},
	{"no header", "load A0 lane=4"},
	{"duplicate header", "kernel a warps=32 blocks=32\nkernel b warps=32 blocks=32"},
	{"missing grid", "kernel a\nload A0 lane=4"},
	{"bad warps", "kernel a warps=x blocks=32\nload A0 lane=4"},
	{"indivisible warps", "kernel a warps=33 blocks=32\nload A0 lane=4"},
	{"unknown class", "kernel a warps=32 blocks=32 class=weird\nload A0 lane=4"},
	{"unknown directive", "kernel a warps=32 blocks=32\nfly A0"},
	{"bad array", "kernel a warps=32 blocks=32\nload B0 lane=4"},
	{"bad attribute", "kernel a warps=32 blocks=32\nload A0 lane=four"},
	{"unknown attribute", "kernel a warps=32 blocks=32\nload A0 wat=4"},
	{"nested loop", "kernel a warps=32 blocks=32\nloop 2\nloop 2\ncompute 1\nend\nend"},
	{"unclosed loop", "kernel a warps=32 blocks=32\nloop 2\ncompute 1"},
	{"end without loop", "kernel a warps=32 blocks=32\ncompute 1\nend"},
	{"zero trips", "kernel a warps=32 blocks=32\nloop 0\ncompute 1\nend"},
	{"no instructions", "kernel a warps=32 blocks=32"},
	{"compute without count", "kernel a warps=32 blocks=32\ncompute"},
}

func TestParseSpecErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSpec(tc.src); err == nil {
				t.Errorf("ParseSpec accepted %q", tc.name)
			}
		})
	}
}

func TestParseSpecErrorHasLineNumber(t *testing.T) {
	_, err := ParseSpec("kernel a warps=32 blocks=32\nload A0 lane=4\nfly")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v should name line 3", err)
	}
}

func TestParsedSpecMatchesBuiltEquivalent(t *testing.T) {
	// The parsed demo kernel must coalesce identically to the same kernel
	// built through the Go API.
	s, err := ParseSpec(demoKernel)
	if err != nil {
		t.Fatal(err)
	}
	b := kernel.NewBuilder("demo")
	b.BeginLoop(8)
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 4, IterStrideB: 128})
	b.Load(kernel.Access{Array: 0, LaneStrideB: 4, IterStrideB: 128, Offset: 128})
	r := b.Compute(6, v)
	r = b.IMul(r)
	b.Store(kernel.Access{Array: 1, LaneStrideB: 4, IterStrideB: 128}, r)
	b.EndLoop()
	want := b.MustBuild()
	for i := range want.Instrs {
		wi, gi := &want.Instrs[i], &s.Program.Instrs[i]
		if wi.Op != gi.Op {
			t.Fatalf("instr %d op %v vs %v", i, gi.Op, wi.Op)
		}
		if wi.Mem != nil && *wi.Mem != *gi.Mem {
			t.Fatalf("instr %d access %+v vs %+v", i, gi.Mem, wi.Mem)
		}
	}
}

// hugeCounts ask for far more instructions than a kernel has registers.
var hugeCounts = []string{
	"kernel k warps=1 blocks=1\ncompute 3000000\n",
	"kernel k warps=1 blocks=1\nimul 3000000\n",
	"kernel k warps=1 blocks=1\nfdiv 3000000\n",
}

// TestParseSpecRegisterFile: a count past the register file is an error
// before anything is built, so it allocates next to nothing, and a
// kernel may use every register a kernel.Reg can name.
func TestParseSpecRegisterFile(t *testing.T) {
	for _, src := range hugeCounts {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseSpec(src)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("ParseSpec accepted %q", src)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%q allocated %d bytes before failing, want < 1 MiB", src, n)
		}
	}
	s, err := ParseSpec("kernel k warps=1 blocks=1\ncompute 255\n")
	if err != nil {
		t.Fatalf("255 chained ALU ops: %v", err)
	}
	if s.Program.NumRegs != kernel.MaxReg+1 {
		t.Errorf("NumRegs = %d, want %d", s.Program.NumRegs, kernel.MaxReg+1)
	}
	if _, err := ParseSpec("kernel k warps=1 blocks=1\ncompute 255\nimul 1\n"); err == nil {
		t.Error("a 256th register accepted")
	}
	// The builder itself stops appending at its first error.
	b := kernel.NewBuilder("k")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := b.Compute(3_000_000, kernel.NoReg)
	for i := 0; i < 300_000; i++ {
		r = b.FDiv(r)
	}
	_, err = b.Build()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("Build accepted 3,300,000 registers")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("the builder allocated %d bytes before failing, want < 1 MiB", n)
	}
}

// hugeCores ask for more warp slots per core than a core may hold.
var hugeCores = []string{
	"kernel k warps=1000000000 blocks=1\ncompute 8\n",
	"kernel k warps=1 blocks=1 maxblk=1000000000\ncompute 8\n",
	"kernel k warps=2048 blocks=2 maxblk=2\ncompute 8\n",
}

// TestParseSpecWarpSlots: a spec whose blocks no core can hold is an
// error, found without sizing anything by the product, and the bound
// itself is accepted.
func TestParseSpecWarpSlots(t *testing.T) {
	for _, src := range hugeCores {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseSpec(src)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "warp slots") {
			t.Errorf("ParseSpec(%q) = %v, want a warp-slot error", src, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%q allocated %d bytes before failing, want < 1 MiB", src, n)
		}
	}
	s, err := ParseSpec(fmt.Sprintf("kernel k warps=%d blocks=2 maxblk=2\ncompute 8\n", MaxWarpSlotsPerCore))
	if err != nil {
		t.Fatalf("a spec at the bound: %v", err)
	}
	if got := s.ActiveWarpsPerCore(); got != MaxWarpSlotsPerCore {
		t.Errorf("ActiveWarpsPerCore = %d, want %d", got, MaxWarpSlotsPerCore)
	}
}

// FuzzParseSpec: ParseSpec never panics, and every spec it accepts fits
// a core's warp slots and still validates once scaled down, as the
// harness scales it.
func FuzzParseSpec(f *testing.F) {
	f.Add(demoKernel)
	f.Add(accessKernel)
	for _, tc := range parseErrorCases {
		f.Add(tc.src)
	}
	for _, src := range hugeCounts {
		f.Add(src)
	}
	for _, src := range hugeCores {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSpec(src)
		if err != nil {
			return
		}
		if n := s.ActiveWarpsPerCore(); n > MaxWarpSlotsPerCore {
			t.Fatalf("accepted spec needs %d warp slots per core, more than %d\n%s", n, MaxWarpSlotsPerCore, src)
		}
		if err := s.Scaled(3).Validate(); err != nil {
			t.Fatalf("accepted spec fails validation after Scaled(3): %v\n%s", err, src)
		}
	})
}
