package swpref

import (
	"testing"

	"mtprefetch/internal/kernel"
	"mtprefetch/internal/workload"
)

// demandBlocks functionally executes a program for one warp and returns
// every block address its demand loads touch, in order.
func demandBlocks(p *kernel.Program, gwid int) []uint64 {
	var out []uint64
	iter := 0
	trips := p.LoopTrips
	for pc := 0; pc < len(p.Instrs); pc++ {
		in := &p.Instrs[pc]
		switch in.Op {
		case kernel.OpLoad:
			out = in.Mem.Transactions(gwid, 32, iter, 64, out)
		case kernel.OpLoopBack:
			if trips > 1 {
				trips--
				iter++
				pc = in.Target - 1
			}
		}
	}
	return out
}

// TestNonBindingTransformsPreserveDemandStream: stride, IP, and MT-SWP
// insert non-binding prefetches only — the demand loads must touch exactly
// the same blocks in the same order as the original binary.
func TestNonBindingTransformsPreserveDemandStream(t *testing.T) {
	for _, s := range workload.MemoryIntensive() {
		want := demandBlocks(s.Program, 3)
		for _, m := range []Mode{Stride, IP, MTSWP} {
			out, _, _ := Apply(s, m)
			got := demandBlocks(out.Program, 3)
			if len(got) != len(want) {
				t.Errorf("%s/%v: demand stream length %d, want %d", s.Name, m, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s/%v: demand block %d = %#x, want %#x", s.Name, m, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestRegisterTransformPreservesDemandSet: binding register prefetching
// reorders loads (pipelines them an iteration ahead) but the set of
// blocks demanded must still cover the original set (it may overfetch one
// trailing iteration per load).
func TestRegisterTransformPreservesDemandSet(t *testing.T) {
	for _, s := range workload.ByClass(workload.Stride) {
		want := map[uint64]bool{}
		for _, b := range demandBlocks(s.Program, 5) {
			want[b] = true
		}
		out, st, _ := Apply(s, Register)
		if st.PipelinedLoads == 0 {
			continue
		}
		got := map[uint64]bool{}
		for _, b := range demandBlocks(out.Program, 5) {
			got[b] = true
		}
		for b := range want {
			if !got[b] {
				t.Errorf("%s: register transform lost demand block %#x", s.Name, b)
			}
		}
	}
}
