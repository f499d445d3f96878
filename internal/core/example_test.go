package core_test

import (
	"fmt"
	"log"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

// Simulate one GPGPU benchmark three ways — no prefetching, the paper's
// MT-HWP hardware prefetcher, and MT-HWP with adaptive throttling — and
// print the speedups.
func ExampleRun() {
	// Pick a benchmark from the Table III suite; its grid is small
	// enough that the example finishes in well under a second.
	spec := workload.ByName("mersenne")
	fmt.Printf("benchmark %s: %d warps in %d blocks, %s-type\n",
		spec.Name, spec.TotalWarps, spec.Blocks, spec.Class)

	// Baseline machine (Table II) with a throttling period matched to
	// the short run.
	cfg := config.Baseline()
	cfg.ThrottlePeriod = 10_000

	baseline, err := core.Run(core.Options{Config: cfg, Workload: spec})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline:        %8d cycles  CPI %.2f  avg mem latency %.0f\n",
		baseline.Cycles, baseline.CPI, baseline.AvgDemandLatency)

	mthwp := func() prefetch.Prefetcher {
		return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
	}

	hw, err := core.Run(core.Options{Config: cfg, Workload: spec, Hardware: mthwp})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MT-HWP:          %8d cycles  speedup %.2fx  accuracy %.0f%%  coverage %.0f%%\n",
		hw.Cycles, hw.Speedup(baseline), hw.Accuracy*100, hw.Coverage*100)

	hwT, err := core.Run(core.Options{Config: cfg, Workload: spec, Hardware: mthwp, Throttle: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MT-HWP+throttle: %8d cycles  speedup %.2fx  (throttle periods: %d, fully off: %d)\n",
		hwT.Cycles, hwT.Speedup(baseline), hwT.ThrottlePeriods, hwT.NoPrefetchPeriods)

	// Output:
	// benchmark mersenne: 128 warps in 32 blocks, stride-type
	// baseline:           50499 cycles  CPI 10.79  avg mem latency 688
	// MT-HWP:             31129 cycles  speedup 1.62x  accuracy 97%  coverage 89%
	// MT-HWP+throttle:    31317 cycles  speedup 1.61x  (throttle periods: 42, fully off: 0)
}

// The simulator is not limited to the paper's benchmark suite: describe
// your own workload in the kernel text format (workload.ParseSpec), then
// study it under any prefetching configuration. This defines a small
// stencil kernel inline, prints its disassembly, and compares baseline
// vs MT-HWP vs MT-SWP+throttle.
func ExampleRun_customKernel() {
	const myKernel = `
# A 3-point vertical stencil: each thread reads three rows of a
# column-major field (uncoalesced taps with heavy cross-warp overlap),
# does a little arithmetic, and writes one output element.
kernel stencil3 warps=896 blocks=448 maxblk=2 regs=18 class=uncoal
load   A0 lane=32
load   A0 lane=32 offset=1024
load   A0 lane=32 offset=2048
compute 9
store  A1 lane=4
`
	spec, err := workload.ParseSpec(myKernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(spec.Program)
	fmt.Printf("\n%d warps in %d blocks, %d blocks/core, %s-type\n\n",
		spec.TotalWarps, spec.Blocks, spec.MaxBlocksPerCore, spec.Class)

	cfg := config.Baseline()
	cfg.ThrottlePeriod = 10_000

	base, err := core.Run(core.Options{Config: cfg, Workload: spec})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s %8d cycles  CPI %.1f  lat %.0f\n",
		"baseline", base.Cycles, base.CPI, base.AvgDemandLatency)

	hw, err := core.Run(core.Options{Config: cfg, Workload: spec,
		Hardware: func() prefetch.Prefetcher {
			return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
		}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s %8d cycles  speedup %.2fx  coverage %.0f%%\n",
		"MT-HWP", hw.Cycles, hw.Speedup(base), hw.Coverage*100)

	sw, err := core.Run(core.Options{Config: cfg, Workload: spec,
		Software: swpref.MTSWP, Throttle: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s %8d cycles  speedup %.2fx  coverage %.0f%%\n",
		"MT-SWP+throttle", sw.Cycles, sw.Speedup(base), sw.Coverage*100)

	// Output:
	// kernel stencil3 (regs=13, arrays=2, trips=1)
	//   0: r1   = load  [A0 lane*32]
	//   1: r2   = load  [A0 +1024 lane*32]
	//   2: r3   = load  [A0 +2048 lane*32]
	//   3: r4   = alu r3
	//   4: r5   = alu r4
	//   5: r6   = alu r5
	//   6: r7   = alu r6
	//   7: r8   = alu r7
	//   8: r9   = alu r8
	//   9: r10  = alu r9
	//  10: r11  = alu r10
	//  11: r12  = alu r11
	//  12: store r12 -> [A1 lane*4]
	//
	// 896 warps in 448 blocks, 2 blocks/core, uncoal-type
	//
	// baseline              79021 cycles  CPI 95.0  lat 718
	// MT-HWP                70553 cycles  speedup 1.12x  coverage 23%
	// MT-SWP+throttle       67951 cycles  speedup 1.16x  coverage 25%
}
