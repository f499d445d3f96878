// Package config describes the simulated GPGPU machine.
//
// The baseline configuration mirrors Table II of Lee et al., MICRO 2010
// ("Many-Thread Aware Prefetching Mechanisms for GPGPU Applications"):
// an NVIDIA 8800GT-like processor with 14 cores of 8-wide SIMD, a 16KB
// 8-way prefetch cache per core, a 20-cycle fixed-latency interconnect,
// and an 8-channel, 16-bank DRAM with 2KB row buffers at 57.6 GB/s.
package config

import (
	"errors"
	"fmt"
)

// Config is a complete machine description. The zero value is not usable;
// start from Baseline and override fields as needed.
type Config struct {
	// Cores.
	NumCores  int // number of SIMT cores (SMs)
	SIMDWidth int // lanes per core
	WarpSize  int // threads per warp

	// Issue occupancy in core cycles per warp-instruction. With 8-wide
	// SIMD and 32-thread warps a warp instruction occupies the pipeline
	// for WarpSize/SIMDWidth = 4 cycles; IMUL and FDIV are slower per
	// the CUDA manual latencies quoted in Table II.
	IssueCostALU  int
	IssueCostIMul int
	IssueCostFDiv int
	IssueCostMem  int // address generation + queue insertion occupancy

	// Clocks in MHz. The simulator advances in core cycles; DRAM timing
	// parameters expressed in DRAM cycles are converted by the clock
	// ratio (see DRAMCyclesToCore).
	CoreClockMHz int
	DRAMClockMHz int

	// Interconnect.
	NOCLatency        int // fixed one-way latency in core cycles
	NOCCoresPerInject int // at most 1 request per this many cores per cycle

	// Memory system.
	BlockBytes     int // memory transaction granularity (cache block)
	DRAMChannels   int
	DRAMBanks      int // banks per channel
	DRAMRowBytes   int // row-buffer (page) size per bank
	DRAMtCL        int // CAS latency, DRAM cycles
	DRAMtRCD       int // RAS-to-CAS, DRAM cycles
	DRAMtRP        int // row precharge, DRAM cycles
	DRAMQueueSize  int // memory-request buffer entries per channel
	BusCyclesBlock int // core cycles of channel data-bus occupancy per block
	DRAMOverhead   int // fixed controller/DRAM-core overhead per access, core cycles
	DRAMAgePromote int // cycles before a queued prefetch gains demand priority (0 = never)

	// Per-core memory request queue (MRQ).
	MRQSize int
	// MRQPrefetchReserve keeps this many MRQ entries usable only by
	// prefetch requests, so a demand-saturated queue cannot starve the
	// prefetcher outright (demands may occupy at most
	// MRQSize-MRQPrefetchReserve entries).
	MRQPrefetchReserve int

	// Prefetch cache (per core).
	PrefetchCacheBytes int
	PrefetchCacheWays  int
	PrefetchHitLatency int // cycles; a prefetch-cache hit costs like shared memory

	// Adaptive throttling (Section V).
	ThrottlePeriod     uint64  // cycles between throttle decisions
	ThrottleInitDegree int     // initial throttle degree (paper uses 2)
	EarlyHighThresh    float64 // early eviction rate considered "high"
	EarlyLowThresh     float64 // below this it is "low"
	MergeHighThresh    float64 // merge ratio considered "high"
}

// Baseline returns the Table II machine.
func Baseline() *Config {
	return &Config{
		NumCores:  14,
		SIMDWidth: 8,
		WarpSize:  32,

		IssueCostALU:  4,
		IssueCostIMul: 16,
		IssueCostFDiv: 32,
		IssueCostMem:  4,

		CoreClockMHz: 900,
		DRAMClockMHz: 1200,

		NOCLatency:        20,
		NOCCoresPerInject: 2,

		BlockBytes:     64,
		DRAMChannels:   8,
		DRAMBanks:      16,
		DRAMRowBytes:   2048,
		DRAMtCL:        11,
		DRAMtRCD:       11,
		DRAMtRP:        13,
		DRAMQueueSize:  32,
		BusCyclesBlock: 8, // 8 channels x 64B/8cyc @900MHz = 57.6 GB/s
		// Fixed access latency (controller + DRAM core, pipelined): the
		// 8800GT's measured ~340ns global-memory latency is ~300+ cycles
		// at 900 MHz.
		DRAMOverhead: 500,
		// Prefetches lose to demands in the DRAM scheduler but are
		// age-promoted after this many cycles so continuous demand
		// traffic cannot starve them forever.
		DRAMAgePromote: 512,

		MRQSize:            64,
		MRQPrefetchReserve: 32,

		PrefetchCacheBytes: 16 * 1024,
		PrefetchCacheWays:  8,
		PrefetchHitLatency: 1,

		ThrottlePeriod:     100_000,
		ThrottleInitDegree: 2,
		EarlyHighThresh:    0.02,
		EarlyLowThresh:     0.01,
		MergeHighThresh:    0.15,
	}
}

// Clone returns a deep copy, so sweeps can mutate fields freely.
func (c *Config) Clone() *Config {
	d := *c
	return &d
}

// DRAMCyclesToCore converts a duration in DRAM cycles to core cycles,
// rounding up. With a 900 MHz core and 1.2 GHz DRAM the factor is 3/4.
func (c *Config) DRAMCyclesToCore(n int) int {
	num := n * c.CoreClockMHz
	return (num + c.DRAMClockMHz - 1) / c.DRAMClockMHz
}

// MaxInjectPerCycle is the interconnect injection limit per core cycle.
func (c *Config) MaxInjectPerCycle() int {
	n := c.NumCores / c.NOCCoresPerInject
	if n < 1 {
		n = 1
	}
	return n
}

// PrefetchCacheSets derives the set count of the prefetch cache.
func (c *Config) PrefetchCacheSets() int {
	lines := c.PrefetchCacheBytes / c.BlockBytes
	return lines / c.PrefetchCacheWays
}

// BandwidthGBs reports the peak DRAM bandwidth implied by the bus model.
func (c *Config) BandwidthGBs() float64 {
	bytesPerCycle := float64(c.DRAMChannels) * float64(c.BlockBytes) / float64(c.BusCyclesBlock)
	return bytesPerCycle * float64(c.CoreClockMHz) * 1e6 / 1e9
}

// Validate reports the first configuration inconsistency found.
func (c *Config) Validate() error {
	switch {
	case c.NumCores <= 0:
		return errors.New("config: NumCores must be positive")
	case c.SIMDWidth <= 0 || c.WarpSize <= 0:
		return errors.New("config: SIMDWidth and WarpSize must be positive")
	case c.WarpSize%c.SIMDWidth != 0:
		return fmt.Errorf("config: WarpSize %d not a multiple of SIMDWidth %d", c.WarpSize, c.SIMDWidth)
	case c.IssueCostALU <= 0 || c.IssueCostIMul <= 0 || c.IssueCostFDiv <= 0 || c.IssueCostMem <= 0:
		return errors.New("config: issue costs must be positive")
	case c.CoreClockMHz <= 0 || c.DRAMClockMHz <= 0:
		return errors.New("config: clocks must be positive")
	case c.NOCLatency < 0:
		return errors.New("config: NOCLatency must be non-negative")
	case c.NOCCoresPerInject <= 0:
		return errors.New("config: NOCCoresPerInject must be positive")
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("config: BlockBytes %d must be a positive power of two", c.BlockBytes)
	case c.DRAMChannels <= 0 || c.DRAMChannels&(c.DRAMChannels-1) != 0:
		return fmt.Errorf("config: DRAMChannels %d must be a positive power of two", c.DRAMChannels)
	case c.DRAMBanks <= 0 || c.DRAMBanks&(c.DRAMBanks-1) != 0:
		return fmt.Errorf("config: DRAMBanks %d must be a positive power of two", c.DRAMBanks)
	case c.DRAMRowBytes < c.BlockBytes:
		return errors.New("config: DRAMRowBytes smaller than BlockBytes")
	case c.DRAMtCL < 0 || c.DRAMtRCD < 0 || c.DRAMtRP < 0:
		return errors.New("config: DRAM timing parameters must be non-negative")
	case c.DRAMQueueSize <= 0:
		return errors.New("config: DRAMQueueSize must be positive")
	case c.BusCyclesBlock <= 0:
		return errors.New("config: BusCyclesBlock must be positive")
	case c.DRAMOverhead < 0:
		return errors.New("config: DRAMOverhead must be non-negative")
	case c.DRAMAgePromote < 0:
		return errors.New("config: DRAMAgePromote must be non-negative")
	case c.MRQSize <= 0:
		return errors.New("config: MRQSize must be positive")
	case c.MRQPrefetchReserve < 0 || c.MRQPrefetchReserve >= c.MRQSize:
		return errors.New("config: MRQPrefetchReserve must be in [0, MRQSize)")
	case c.PrefetchCacheBytes < 0:
		return errors.New("config: PrefetchCacheBytes must be non-negative")
	case c.PrefetchCacheBytes > 0 && c.PrefetchCacheWays <= 0:
		return errors.New("config: PrefetchCacheWays must be positive")
	case c.PrefetchCacheBytes > 0 && c.PrefetchCacheSets() <= 0:
		return errors.New("config: prefetch cache too small for its associativity")
	case c.ThrottlePeriod == 0:
		return errors.New("config: ThrottlePeriod must be positive")
	case c.ThrottleInitDegree < 0 || c.ThrottleInitDegree > 5:
		return errors.New("config: ThrottleInitDegree must be in [0,5]")
	case c.EarlyLowThresh < 0 || c.EarlyHighThresh < c.EarlyLowThresh:
		return errors.New("config: early-eviction thresholds out of order")
	case c.MergeHighThresh < 0 || c.MergeHighThresh > 1:
		return errors.New("config: MergeHighThresh must be in [0,1]")
	}
	return nil
}
