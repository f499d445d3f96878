package main

import (
	"fmt"
	"strings"
)

// synthKernels is how many kernels one synth-lowocc seed generates.
const synthKernels = 32

// pfCacheBytes is the baseline prefetch cache size (Table II). Spans are
// drawn on both sides of it so some kernels' working sets fit in the
// prefetch cache and others thrash it.
const pfCacheBytes = 16 << 10

// stratum fixes the shape of a kernel: the parameters that decide how much
// work a run does (class, grid, trip count, loads per body, coalescing,
// hashed loads). The seed varies only where that work lands (iteration
// stride, offsets, span, sharing period), so two seeds give different
// address streams but nearly the same pass time — the benchmark's spread
// across seeds measures the host, not the generator.
type stratum struct {
	class      string
	warps      int // per block; one block per core keeps occupancy low
	blocks     int
	trips      int // 0: straight-line kernel
	loads      int
	lane       int // bytes between lanes: 4 coalesced, >=16 uncoalesced
	hashed     int // loads scrambled within their span
	shared     bool
	compute    int
	iterStride bool // loads advance per iteration
}

// strata cycle through the classes the paper's taxonomy names, each at
// one block per core.
var strata = []stratum{
	{class: "stride", warps: 2, blocks: 28, trips: 24, loads: 2, lane: 4, compute: 6, iterStride: true},
	{class: "stride", warps: 4, blocks: 28, trips: 16, loads: 3, lane: 4, shared: true, compute: 8, iterStride: true},
	{class: "mp", warps: 4, blocks: 56, loads: 2, lane: 4, shared: true, compute: 10},
	{class: "mp", warps: 2, blocks: 84, loads: 3, lane: 8, compute: 4},
	{class: "uncoal", warps: 2, blocks: 42, loads: 2, lane: 32, hashed: 1, compute: 6},
	{class: "uncoal", warps: 2, blocks: 28, trips: 6, loads: 2, lane: 16, compute: 4, iterStride: true},
	{class: "stride", warps: 1, blocks: 28, trips: 32, loads: 1, lane: 4, compute: 2, iterStride: true},
	{class: "uncoal", warps: 1, blocks: 42, loads: 3, lane: 32, hashed: 2, compute: 8},
}

// splitmix64 is the generator's random source: fixed forever, so a seed
// names the same kernels on every Go version.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// pick returns one of xs.
func (s *splitmix64) pick(xs ...int) int { return xs[s.next()%uint64(len(xs))] }

// synthSpecs generates the synth-lowocc kernels for seed, each in the
// workload.ParseSpec text format.
func synthSpecs(seed uint64) []string {
	rng := splitmix64(seed)
	out := make([]string, synthKernels)
	for i := range out {
		out[i] = synthSpec(i, strata[i%len(strata)], &rng)
	}
	return out
}

func synthSpec(i int, st stratum, rng *splitmix64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel synth%02d warps=%d blocks=%d maxblk=1 regs=16 class=%s\n",
		i, st.warps*st.blocks, st.blocks, st.class)
	indent := ""
	if st.trips > 0 {
		fmt.Fprintf(&b, "loop %d\n", st.trips)
		indent = "  "
	}
	iter := 0
	if st.iterStride {
		iter = 128 * rng.pick(1, 2, 4, 8, 32)
	}
	for l := 0; l < st.loads; l++ {
		fmt.Fprintf(&b, "%sload A%d lane=%d", indent, l, st.lane)
		if iter > 0 {
			fmt.Fprintf(&b, " iter=%d", iter)
		}
		if off := 128 * rng.pick(0, 0, 1, 3, 8); off > 0 {
			fmt.Fprintf(&b, " offset=%d", off)
		}
		if l < st.hashed {
			b.WriteString(" hash")
		}
		// The span is the working set one load wraps within: half the
		// draws fit in the prefetch cache, half overflow it.
		if span := rng.pick(0, pfCacheBytes/2, pfCacheBytes*3/4, pfCacheBytes*2, pfCacheBytes*8); span > 0 {
			fmt.Fprintf(&b, " span=%d", span)
		}
		if st.shared && l == st.loads-1 {
			fmt.Fprintf(&b, " shared=%d", rng.pick(4, 8, 16, 32))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%scompute %d\n", indent, st.compute)
	fmt.Fprintf(&b, "%sstore A%d lane=4", indent, st.loads)
	if iter > 0 {
		fmt.Fprintf(&b, " iter=%d", iter)
	}
	b.WriteString("\n")
	if st.trips > 0 {
		b.WriteString("end\n")
	}
	return b.String()
}
