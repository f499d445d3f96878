// Package workload defines the synthetic benchmark suite used to drive the
// simulator.
//
// The paper evaluates 14 memory-intensive CUDA benchmarks (Table III) and
// 12 non-memory-intensive ones (Table IV) via GPUOcelot-generated PTX
// traces. Those traces are not redistributable, so each benchmark is
// reproduced here as a small kernel (internal/kernel) parameterised by the
// published characteristics: thread/block counts, occupancy (max blocks
// per core), the stride / massively-parallel / uncoalesced taxonomy, and
// approximate memory intensity. See DESIGN.md for the substitution
// rationale.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"mtprefetch/internal/kernel"
)

// Class is the paper's benchmark taxonomy (Section VI-B).
type Class uint8

const (
	// Stride benchmarks show strong per-thread stride behaviour
	// (loop-based kernels, including multidimensional patterns).
	Stride Class = iota
	// MP benchmarks are massively parallel: very many short threads
	// with no loops — the inter-thread prefetching candidates.
	MP
	// Uncoal benchmarks are dominated by uncoalesced accesses.
	Uncoal
	// NonIntensive benchmarks are compute-bound (Table IV).
	NonIntensive
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Stride:
		return "stride"
	case MP:
		return "mp"
	case Uncoal:
		return "uncoal"
	case NonIntensive:
		return "non-intensive"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Spec describes one benchmark.
type Spec struct {
	Name  string
	Suite string
	Class Class

	TotalWarps       int // Table III "# Total warps"
	Blocks           int // Table III "# Blocks"
	MaxBlocksPerCore int // Table III "# Max blocks/core" (occupancy)
	RegsPerThread    int // register usage (occupancy input for reg. prefetch)

	// Delinquent-load counts from Table III, kept as reference metadata
	// (our kernels use a scaled-down number of static loads).
	DelStride int
	DelIP     int

	// Paper-reported CPIs for EXPERIMENTS.md comparison.
	PaperBaseCPI float64
	PaperPMemCPI float64

	Program *kernel.Program
}

// WarpsPerBlock returns the warps in one thread block.
func (s *Spec) WarpsPerBlock() int {
	if s.Blocks == 0 {
		return 0
	}
	return s.TotalWarps / s.Blocks
}

// ActiveWarpsPerCore is the number of concurrently resident warps on one
// core at full occupancy.
func (s *Spec) ActiveWarpsPerCore() int {
	return s.MaxBlocksPerCore * s.WarpsPerBlock()
}

// Scaled returns a copy with the grid shrunk by factor (warps-per-block
// and all per-warp behaviour preserved), for fast tests and benches.
// A factor <= 1 returns the spec unchanged.
func (s *Spec) Scaled(factor int) *Spec {
	if factor <= 1 {
		return s
	}
	t := *s
	blocks := s.Blocks / factor
	if blocks < 1 {
		blocks = 1
	}
	t.Blocks = blocks
	t.TotalWarps = blocks * s.WarpsPerBlock()
	return &t
}

// MaxWarpSlotsPerCore bounds a core's warp slots at full occupancy,
// MaxBlocksPerCore × WarpsPerBlock: a core sizes its per-warp state by
// that product, so an unbounded spec could exhaust memory instead of
// failing. The largest suite benchmark uses 32.
const MaxWarpSlotsPerCore = 1024

// Validate checks internal consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: unnamed spec")
	}
	if s.Blocks <= 0 || s.TotalWarps <= 0 {
		return fmt.Errorf("workload %s: non-positive grid", s.Name)
	}
	if s.TotalWarps%s.Blocks != 0 {
		return fmt.Errorf("workload %s: %d warps not divisible by %d blocks", s.Name, s.TotalWarps, s.Blocks)
	}
	if s.MaxBlocksPerCore <= 0 {
		return fmt.Errorf("workload %s: non-positive occupancy", s.Name)
	}
	// Each factor is checked first, so the product cannot overflow.
	if wpb := s.WarpsPerBlock(); wpb > MaxWarpSlotsPerCore || s.MaxBlocksPerCore > MaxWarpSlotsPerCore ||
		wpb*s.MaxBlocksPerCore > MaxWarpSlotsPerCore {
		return fmt.Errorf("workload %s: %d blocks of %d warps per core exceed %d warp slots",
			s.Name, s.MaxBlocksPerCore, wpb, MaxWarpSlotsPerCore)
	}
	if s.RegsPerThread <= 0 {
		return fmt.Errorf("workload %s: non-positive register usage", s.Name)
	}
	if s.Program == nil {
		return fmt.Errorf("workload %s: missing program", s.Name)
	}
	return s.Program.Validate()
}

// params drives the shared kernel template.
type params struct {
	trips      int    // loop trips; 0 = straight-line kernel
	loads      int    // parallel loads per body
	laneStride uint64 // 4 = coalesced, >=16 = uncoalesced
	hashLoads  int    // of the loads, how many are hash-scrambled (irregular)
	compute    int    // chained ALU ops after the loads
	imul       int    // extra IMUL ops
	fdiv       int    // extra FDIV ops
	iterStride uint64 // per-iteration advance for loop kernels
	span       uint64 // array working-set bound
	store      bool

	// tapStride, when non-zero, turns the loads into filter taps: all
	// loads read the same array at offsets i*tapStride. Choosing
	// tapStride equal to the warp's footprint makes consecutive warps
	// touch overlapping blocks — the cross-thread spatial reuse of image
	// filters and stencils, which the (prefetch) cache can exploit.
	// Combined with iterStride == tapStride in a loop kernel it models a
	// sliding window (convolution): each iteration re-reads most of the
	// previous iteration's taps.
	tapStride uint64

	// sharedLoads makes the last N loads read data shared by groups of
	// sharePeriod warps (weight vectors, broadcast inputs) — re-fetches
	// of shared data are what a cache absorbs.
	sharedLoads int
	sharePeriod int
}

// buildKernel instantiates the shared template:
//
//	[loop trips times:]
//	  v_i = load A_i        (i = 0..loads-1; first hashLoads are hashed)
//	  c   = compute chain over all v_i
//	  extra IMUL/FDIV ops
//	  [store C c]
func buildKernel(name string, p params) (*kernel.Program, error) {
	b := kernel.NewBuilder(name)
	body := func() {
		var vals []kernel.Reg
		for i := 0; i < p.loads; i++ {
			acc := kernel.Access{
				Array:       i,
				LaneStrideB: p.laneStride,
				IterStrideB: p.iterStride,
				Span:        p.span,
			}
			switch {
			case i < p.hashLoads:
				acc.Hash = true
			case p.tapStride != 0:
				acc.Array = p.hashLoads                          // taps share one array...
				acc.Offset = uint64(i-p.hashLoads) * p.tapStride // ...at row offsets
			case i >= p.loads-p.sharedLoads:
				acc.WarpPeriod = p.sharePeriod
			}
			vals = append(vals, b.Load(acc))
		}
		c := vals[0]
		for _, v := range vals[1:] {
			c = b.ALU(c, v)
		}
		c = b.Compute(p.compute, c)
		for i := 0; i < p.imul; i++ {
			c = b.IMul(c)
		}
		for i := 0; i < p.fdiv; i++ {
			c = b.FDiv(c)
		}
		if p.store {
			b.Store(kernel.Access{
				Array:       p.loads,
				LaneStrideB: 4,
				IterStrideB: p.iterStride,
				Span:        p.span,
			}, c)
		}
	}
	if p.trips > 0 {
		b.BeginLoop(p.trips)
		body()
		b.EndLoop()
	} else {
		body()
	}
	return b.Build()
}

// suite is built lazily, exactly once, by load(); Specs hands out copies.
// Lazy construction (instead of an init-time panic) lets a kernel-template
// bug surface as an error through Load, so a sweep can report it instead
// of crashing the process before main runs.
var (
	loadOnce sync.Once
	suite    []*Spec
	loadErr  error
)

// Load builds (once) and returns the built-in benchmark suite in
// declaration order, surfacing any kernel-construction or validation
// error. The convenience accessors (Specs, ByName, ByClass, ...) funnel
// through the same build but return empty results on failure; callers
// that must distinguish an empty result from a broken suite use Load.
func Load() ([]*Spec, error) {
	loadOnce.Do(func() { suite, loadErr = buildSuite() })
	return suite, loadErr
}

func buildSuite() ([]*Spec, error) {
	var out []*Spec
	var firstErr error
	mk := func(name, su string, class Class, warps, blocks, maxBlk, regs, delS, delIP int,
		baseCPI, pmemCPI float64, p params) {
		if firstErr != nil {
			return
		}
		prog, err := buildKernel(name, p)
		if err != nil {
			firstErr = fmt.Errorf("workload %s: %w", name, err)
			return
		}
		s := &Spec{
			Name: name, Suite: su, Class: class,
			TotalWarps: warps, Blocks: blocks, MaxBlocksPerCore: maxBlk,
			RegsPerThread: regs, DelStride: delS, DelIP: delIP,
			PaperBaseCPI: baseCPI, PaperPMemCPI: pmemCPI,
			Program: prog,
		}
		if err := s.Validate(); err != nil {
			firstErr = err
			return
		}
		out = append(out, s)
	}

	// --- Memory-intensive suite (Table III) -------------------------------
	// Stride-type: loop kernels with strong per-warp strides.
	// black walks multidimensional strided windows over its option
	// arrays (the paper's "including multidimensional patterns").
	mk("black", "sdk", Stride, 1920, 480, 3, 24, 3, 0, 8.86, 4.15,
		params{trips: 8, loads: 3, laneStride: 4, compute: 12, fdiv: 1,
			iterStride: 128, tapStride: 128, store: true})
	// conv is a sliding-window convolution: taps overlap across
	// iterations and warps.
	mk("conv", "sdk", Stride, 4128, 688, 2, 20, 1, 0, 7.98, 4.21,
		params{trips: 8, loads: 3, laneStride: 4, compute: 10, imul: 1,
			iterStride: 128, tapStride: 128, store: true})
	// mersenne slides over its twister state vector.
	mk("mersenne", "sdk", Stride, 128, 32, 2, 16, 2, 0, 7.09, 4.99,
		params{trips: 32, loads: 2, laneStride: 4, compute: 10, imul: 1,
			iterStride: 128, tapStride: 128, store: true})
	// monte re-reads overlapping windows of its path table.
	mk("monte", "sdk", Stride, 2048, 256, 2, 22, 1, 0, 13.69, 5.36,
		params{trips: 16, loads: 2, laneStride: 4, compute: 8,
			iterStride: 128, tapStride: 128, store: true})
	mk("pns", "parboil", Stride, 144, 18, 1, 28, 1, 1, 18.87, 5.25,
		params{trips: 16, loads: 2, laneStride: 4, compute: 8, imul: 1,
			iterStride: 128, tapStride: 128, store: true})
	mk("scalar", "sdk", Stride, 1024, 128, 2, 18, 2, 0, 19.25, 4.19,
		params{trips: 32, loads: 2, laneStride: 4, compute: 5,
			iterStride: 1 << 14, store: true})
	mk("stream", "rodinia", Stride, 2048, 128, 1, 20, 2, 5, 18.93, 4.21,
		params{trips: 48, loads: 1, laneStride: 4, compute: 2,
			iterStride: 1 << 13, store: true})

	// Mp-type: massively parallel, loop-free, very short threads.
	// backprop's second input (the weight vector) is shared across warp
	// groups — re-fetched every wave without a cache.
	mk("backprop", "rodinia", MP, 16384, 2048, 2, 16, 0, 5, 21.47, 4.16,
		params{loads: 2, laneStride: 4, compute: 12, store: true,
			sharedLoads: 2, sharePeriod: 32})
	mk("cell", "rodinia", MP, 21296, 1331, 1, 20, 0, 1, 8.81, 4.19,
		params{loads: 2, laneStride: 4, compute: 18, imul: 2, store: true,
			sharedLoads: 1, sharePeriod: 32})
	mk("ocean", "sdk", MP, 32768, 16384, 8, 10, 0, 1, 62.63, 4.19,
		params{loads: 2, laneStride: 4, compute: 4, store: true})

	// Uncoal-type: dominant uncoalesced accesses. The tap loads give the
	// image-filter/stencil benchmarks their cross-warp spatial reuse,
	// which only a (prefetch) cache can exploit.
	mk("bfs", "rodinia", Uncoal, 2048, 128, 1, 12, 4, 3, 102.02, 4.19,
		params{loads: 4, laneStride: 32, hashLoads: 2, compute: 6, store: true,
			tapStride: 32 * 32})
	mk("cfd", "rodinia", Uncoal, 7272, 1212, 1, 24, 0, 36, 29.01, 4.37,
		params{loads: 4, laneStride: 32, compute: 12, store: true,
			tapStride: 32 * 32})
	mk("linear", "merge", Uncoal, 8192, 1024, 2, 10, 0, 27, 408.9, 4.18,
		params{loads: 4, laneStride: 16, compute: 2, store: true,
			tapStride: 16 * 32})
	mk("sepia", "merge", Uncoal, 8192, 1024, 3, 12, 0, 2, 149.46, 4.19,
		params{loads: 3, laneStride: 32, compute: 6, store: true,
			tapStride: 32 * 32})

	// --- Non-memory-intensive suite (Table IV) ----------------------------
	ni := func(name, su string, baseCPI, pmemCPI float64, compute, trips int) {
		mk(name, su, NonIntensive, 1024, 128, 4, 16, 0, 0, baseCPI, pmemCPI,
			params{trips: trips, loads: 1, laneStride: 4, compute: compute,
				iterStride: 1 << 13, store: true})
	}
	ni("binomial", "sdk", 4.29, 4.27, 28, 4)
	ni("dwthaar1d", "sdk", 4.6, 4.37, 24, 4)
	ni("eigenvalue", "sdk", 4.73, 4.72, 22, 4)
	ni("gaussian", "rodinia", 6.36, 4.18, 16, 4)
	ni("histogram", "sdk", 6.29, 5.17, 16, 4)
	ni("leukocyte", "rodinia", 4.23, 4.2, 30, 4)
	ni("matrix", "sdk", 5.14, 4.14, 18, 4)
	ni("mri-fhd", "parboil", 4.36, 4.26, 26, 4)
	ni("mri-q", "parboil", 4.31, 4.23, 26, 4)
	ni("nbody", "sdk", 4.72, 4.54, 22, 4)
	ni("qusirandom", "sdk", 4.12, 4.12, 32, 4)
	ni("sad", "rodinia", 5.28, 4.17, 18, 4)

	return out, firstErr
}

// load returns the suite for the convenience accessors, which keep their
// error-free signatures: on a build failure they see an empty suite, and
// the error is reported by whichever caller consults Load directly.
func load() []*Spec {
	s, _ := Load()
	return s
}

// Specs returns the full suite in declaration order (memory-intensive
// first, matching Table III, then Table IV).
func Specs() []*Spec {
	suite := load()
	out := make([]*Spec, len(suite))
	copy(out, suite)
	return out
}

// MemoryIntensive returns the 14 Table III benchmarks.
func MemoryIntensive() []*Spec {
	var out []*Spec
	for _, s := range load() {
		if s.Class != NonIntensive {
			out = append(out, s)
		}
	}
	return out
}

// NonIntensiveSpecs returns the 12 Table IV benchmarks.
func NonIntensiveSpecs() []*Spec {
	var out []*Spec
	for _, s := range load() {
		if s.Class == NonIntensive {
			out = append(out, s)
		}
	}
	return out
}

// ByClass returns memory-intensive benchmarks of one class, sorted by name.
func ByClass(c Class) []*Spec {
	var out []*Spec
	for _, s := range load() {
		if s.Class == c {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks a benchmark up; it returns nil when absent.
func ByName(name string) *Spec {
	for _, s := range load() {
		if s.Name == name {
			return s
		}
	}
	return nil
}
