package swpref

import (
	"testing"

	"mtprefetch/internal/kernel"
	"mtprefetch/internal/workload"
)

func strideSpec(t *testing.T) *workload.Spec {
	t.Helper()
	s := workload.ByName("monte") // loop kernel, 2 strided loads per body
	if s == nil {
		t.Fatal("monte missing from suite")
	}
	return s
}

func mpSpec(t *testing.T) *workload.Spec {
	t.Helper()
	s := workload.ByName("backprop") // loop-free, 2 loads
	if s == nil {
		t.Fatal("backprop missing from suite")
	}
	return s
}

func countOps(p *kernel.Program, op kernel.OpClass) int {
	n := 0
	for i := range p.Instrs {
		if p.Instrs[i].Op == op {
			n++
		}
	}
	return n
}

func TestNoneIsIdentity(t *testing.T) {
	s := strideSpec(t)
	out, st, _ := Apply(s, None)
	if out != s {
		t.Error("None should return the original spec")
	}
	if st.PrefetchInstrs != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{None, Register, Stride, IP, MTSWP, Mode(99)} {
		if m.String() == "" {
			t.Errorf("Mode(%d).String empty", uint8(m))
		}
	}
}

func TestStrideTransformInsertsLoopPrefetches(t *testing.T) {
	s := strideSpec(t)
	out, st, _ := Apply(s, Stride)
	if out == s || out.Program == s.Program {
		t.Fatal("Apply must copy")
	}
	loads := countOps(s.Program, kernel.OpLoad)
	if st.PrefetchInstrs != loads {
		t.Errorf("PrefetchInstrs = %d, want one per strided load (%d)", st.PrefetchInstrs, loads)
	}
	if got := countOps(out.Program, kernel.OpPrefetch); got != loads {
		t.Errorf("prefetch ops in program = %d, want %d", got, loads)
	}
	// Prefetches target the next iteration.
	for i := range out.Program.Instrs {
		in := &out.Program.Instrs[i]
		if in.Op == kernel.OpPrefetch && in.Mem.IterAhead != 1 {
			t.Errorf("prefetch IterAhead = %d, want 1", in.Mem.IterAhead)
		}
	}
	if err := out.Program.Validate(); err != nil {
		t.Fatalf("transformed program invalid: %v", err)
	}
	// Occupancy unchanged: prefetch cache, not registers.
	if out.MaxBlocksPerCore != s.MaxBlocksPerCore {
		t.Error("stride transform changed occupancy")
	}
}

func TestStridePrefetchesInsideLoop(t *testing.T) {
	s := strideSpec(t)
	out, _, _ := Apply(s, Stride)
	// The back edge must still reach the prefetches: dynamic prefetch
	// count = static * trips.
	c := out.Program.DynamicCounts()
	staticPf := countOps(out.Program, kernel.OpPrefetch)
	if c.Prefetch != staticPf*out.Program.LoopTrips {
		t.Errorf("dynamic prefetches = %d, want %d (prefetches fell out of the loop)",
			c.Prefetch, staticPf*out.Program.LoopTrips)
	}
}

func TestStrideOnLoopFreeKernelIsNoop(t *testing.T) {
	s := mpSpec(t)
	out, st, _ := Apply(s, Stride)
	if st.PrefetchInstrs != 0 {
		t.Errorf("stride transform touched a loop-free kernel: %+v", st)
	}
	if got := countOps(out.Program, kernel.OpPrefetch); got != 0 {
		t.Errorf("prefetch ops = %d, want 0", got)
	}
}

func TestIPTransformTargetsNextWarp(t *testing.T) {
	s := mpSpec(t)
	out, st, _ := Apply(s, IP)
	loads := countOps(s.Program, kernel.OpLoad)
	if st.PrefetchInstrs != loads {
		t.Errorf("PrefetchInstrs = %d, want %d", st.PrefetchInstrs, loads)
	}
	for i := range out.Program.Instrs {
		in := &out.Program.Instrs[i]
		if in.Op == kernel.OpPrefetch && in.Mem.WarpAhead != 1 {
			t.Errorf("IP prefetch WarpAhead = %d, want 1", in.Mem.WarpAhead)
		}
	}
	// IP prefetches come first (Fig. 4a: prefetch before the loads).
	if out.Program.Instrs[0].Op != kernel.OpPrefetch {
		t.Error("IP prefetches not at kernel top")
	}
}

func TestIPAddressesMatchNextWarpDemands(t *testing.T) {
	s := mpSpec(t)
	out, _, _ := Apply(s, IP)
	var pf, ld *kernel.Access
	for i := range out.Program.Instrs {
		in := &out.Program.Instrs[i]
		if in.Op == kernel.OpPrefetch && pf == nil {
			pf = in.Mem
		}
		if in.Op == kernel.OpLoad && ld == nil {
			ld = in.Mem
		}
	}
	if pf == nil || ld == nil {
		t.Fatal("missing prefetch or load")
	}
	// Warp 5's prefetch == warp 6's demand, lane by lane.
	for lane := 0; lane < 32; lane += 7 {
		if pf.LaneAddr(5, 32, lane, 0) != ld.LaneAddr(6, 32, lane, 0) {
			t.Fatalf("IP prefetch does not match next warp's demand at lane %d", lane)
		}
	}
}

func TestMTSWPCombinesBoth(t *testing.T) {
	s := strideSpec(t)
	out, st, _ := Apply(s, MTSWP)
	loads := countOps(s.Program, kernel.OpLoad)
	if st.PrefetchInstrs != 2*loads {
		t.Errorf("PrefetchInstrs = %d, want %d (stride + IP)", st.PrefetchInstrs, 2*loads)
	}
	sawIter, sawWarp := false, false
	for i := range out.Program.Instrs {
		in := &out.Program.Instrs[i]
		if in.Op != kernel.OpPrefetch {
			continue
		}
		if in.Mem.IterAhead > 0 {
			sawIter = true
		}
		if in.Mem.WarpAhead > 0 {
			sawWarp = true
		}
	}
	if !sawIter || !sawWarp {
		t.Errorf("MT-SWP missing a component: stride=%v ip=%v", sawIter, sawWarp)
	}
}

func TestRegisterTransformPipelinesAndCostsOccupancy(t *testing.T) {
	s := strideSpec(t) // monte: maxBlocks 2, 22 regs, 2 loads
	out, st, _ := Apply(s, Register)
	if st.PipelinedLoads != 2 {
		t.Fatalf("PipelinedLoads = %d, want 2", st.PipelinedLoads)
	}
	if st.RegistersAdded != 4 {
		t.Errorf("RegistersAdded = %d, want 4", st.RegistersAdded)
	}
	// 2 * 22 / 26 = 1.69 -> 1 block.
	if out.MaxBlocksPerCore != 1 {
		t.Errorf("occupancy after = %d, want 1", out.MaxBlocksPerCore)
	}
	if st.OccupancyBefore != 2 || st.OccupancyAfter != 1 {
		t.Errorf("stats occupancy = %d -> %d, want 2 -> 1", st.OccupancyBefore, st.OccupancyAfter)
	}
	// No non-binding prefetches: it is binding, through registers.
	if got := countOps(out.Program, kernel.OpPrefetch); got != 0 {
		t.Errorf("register prefetching emitted %d prefetch ops", got)
	}
	// Same number of loads per iteration plus the prologue.
	origLoads := countOps(s.Program, kernel.OpLoad)
	if got := countOps(out.Program, kernel.OpLoad); got != 2*origLoads {
		t.Errorf("loads = %d, want %d (prologue + refills)", got, 2*origLoads)
	}
	if err := out.Program.Validate(); err != nil {
		t.Fatalf("invalid program: %v", err)
	}
}

func TestRegisterRefillAfterConsumers(t *testing.T) {
	s := strideSpec(t)
	out, _, _ := Apply(s, Register)
	start, end := -1, -1
	for i := range out.Program.Instrs {
		if out.Program.Instrs[i].Op == kernel.OpLoopBack {
			start, end = out.Program.Instrs[i].Target, i
		}
	}
	if start < 0 {
		t.Fatal("loop lost")
	}
	// Within the body, every load must come after every compute.
	lastCompute, firstLoad := -1, end
	for i := start; i < end; i++ {
		switch out.Program.Instrs[i].Op {
		case kernel.OpALU, kernel.OpIMul, kernel.OpFDiv:
			lastCompute = i
		case kernel.OpLoad:
			if i < firstLoad {
				firstLoad = i
			}
		}
	}
	if firstLoad < lastCompute {
		t.Error("refill load issued before its consumers — not pipelined")
	}
}

func TestRegisterOnLoopFreeKernelIsNoop(t *testing.T) {
	s := mpSpec(t)
	out, st, _ := Apply(s, Register)
	if st.PipelinedLoads != 0 || out.MaxBlocksPerCore != s.MaxBlocksPerCore {
		t.Errorf("register transform touched a loop-free kernel: %+v", st)
	}
}

func TestOccupancyNeverBelowOne(t *testing.T) {
	s := *strideSpec(t)
	s.RegsPerThread = 1
	s.MaxBlocksPerCore = 1
	out, _, _ := Apply(&s, Register)
	if out.MaxBlocksPerCore != 1 {
		t.Errorf("occupancy = %d, want floor of 1", out.MaxBlocksPerCore)
	}
}

func TestApplyDoesNotMutateOriginal(t *testing.T) {
	s := strideSpec(t)
	before := len(s.Program.Instrs)
	occBefore := s.MaxBlocksPerCore
	Apply(s, MTSWP)
	Apply(s, Register)
	if len(s.Program.Instrs) != before || s.MaxBlocksPerCore != occBefore {
		t.Fatal("Apply mutated the input spec")
	}
}

func TestAllSuiteTransformsValid(t *testing.T) {
	for _, s := range workload.Specs() {
		for _, m := range []Mode{Register, Stride, IP, MTSWP} {
			out, _, _ := Apply(s, m)
			if err := out.Program.Validate(); err != nil {
				t.Errorf("%s/%v: %v", s.Name, m, err)
			}
			if err := out.Validate(); err != nil {
				t.Errorf("%s/%v spec: %v", s.Name, m, err)
			}
		}
	}
}
