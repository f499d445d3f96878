// Package config describes the simulated GPGPU machine.
//
// The machine is Table II of Lee et al., MICRO 2010 ("Many-Thread Aware
// Prefetching Mechanisms for GPGPU Applications"): an NVIDIA 8800GT-like
// processor with 14 cores of 8-wide SIMD, a 16KB 8-way prefetch cache
// per core, a 20-cycle fixed-latency interconnect, and an 8-channel,
// 16-bank DRAM with 2KB row buffers at 57.6 GB/s. The constants below
// fix every parameter the paper holds constant; Config carries the few
// that some experiment, ablation or test varies.
package config

import (
	"errors"
	"fmt"
)

// The fixed Table II machine. Machine renders every one of these for the
// result store's fingerprint, so a constant added here must be added
// there too.
const (
	// Cores.
	SIMDWidth = 8  // lanes per core
	WarpSize  = 32 // threads per warp

	// Issue occupancy in core cycles per warp-instruction. With 8-wide
	// SIMD and 32-thread warps a warp instruction occupies the pipeline
	// for WarpSize/SIMDWidth = 4 cycles; IMUL and FDIV are slower per
	// the CUDA manual latencies quoted in Table II.
	IssueCostALU  = 4
	IssueCostIMul = 16
	IssueCostFDiv = 32
	IssueCostMem  = 4 // address generation + queue insertion occupancy

	// Clocks in MHz. The simulator advances in core cycles; DRAM timing
	// parameters expressed in DRAM cycles are converted by the clock
	// ratio (see TCL).
	CoreClockMHz = 900
	DRAMClockMHz = 1200

	// Interconnect.
	NOCLatency        = 20 // fixed one-way latency in core cycles
	NOCCoresPerInject = 2  // at most 1 request per this many cores per cycle

	// Memory system.
	BlockBytes     = 64 // memory transaction granularity (cache block)
	DRAMChannels   = 8
	DRAMBanks      = 16   // banks per channel
	DRAMRowBytes   = 2048 // row-buffer (page) size per bank
	DRAMtCL        = 11   // CAS latency, DRAM cycles
	DRAMtRCD       = 11   // RAS-to-CAS, DRAM cycles
	DRAMtRP        = 13   // row precharge, DRAM cycles
	DRAMQueueSize  = 32   // memory-request buffer entries per channel
	BusCyclesBlock = 8    // core cycles of channel data-bus occupancy per block
	// DRAMOverhead is the fixed controller/DRAM-core overhead per access
	// in core cycles (pipelined): the 8800GT's measured ~340ns
	// global-memory latency is ~300+ cycles at 900 MHz.
	DRAMOverhead = 500

	PrefetchCacheWays  = 8 // prefetch-cache associativity
	ThrottleInitDegree = 2 // initial adaptive-throttle degree (Section V)
)

// The DRAM timings in core cycles, rounded up: with a 900 MHz core and
// 1.2 GHz DRAM the factor is 3/4, so tCL/tRCD/tRP = 9/9/10.
const (
	TCL  = (DRAMtCL*CoreClockMHz + DRAMClockMHz - 1) / DRAMClockMHz
	TRCD = (DRAMtRCD*CoreClockMHz + DRAMClockMHz - 1) / DRAMClockMHz
	TRP  = (DRAMtRP*CoreClockMHz + DRAMClockMHz - 1) / DRAMClockMHz
)

// BandwidthGBs is the peak DRAM bandwidth the bus model implies:
// 8 channels x 64B per 8 cycles at 900 MHz = 57.6 GB/s.
const BandwidthGBs = DRAMChannels * BlockBytes * CoreClockMHz * 1e6 / BusCyclesBlock / 1e9

// Machine renders the fixed machine, every constant above in declaration
// order, so a fingerprint over it changes whenever one of them does.
func Machine() string {
	return fmt.Sprint(SIMDWidth, WarpSize,
		IssueCostALU, IssueCostIMul, IssueCostFDiv, IssueCostMem,
		CoreClockMHz, DRAMClockMHz,
		NOCLatency, NOCCoresPerInject,
		BlockBytes, DRAMChannels, DRAMBanks, DRAMRowBytes,
		DRAMtCL, DRAMtRCD, DRAMtRP, DRAMQueueSize, BusCyclesBlock, DRAMOverhead,
		PrefetchCacheWays, ThrottleInitDegree)
}

// Config holds the machine parameters a run may vary. The zero value is
// not usable; start from Baseline and override fields as needed.
type Config struct {
	NumCores int // number of SIMT cores (SMs); Fig. 18 varies it

	// DRAMAgePromote is the number of cycles before a queued prefetch
	// gains demand priority in the DRAM scheduler (0 = never).
	DRAMAgePromote int

	// Per-core memory request queue (MRQ).
	MRQSize int
	// MRQPrefetchReserve keeps this many MRQ entries usable only by
	// prefetch requests, so a demand-saturated queue cannot starve the
	// prefetcher outright (demands may occupy at most
	// MRQSize-MRQPrefetchReserve entries).
	MRQPrefetchReserve int

	PrefetchCacheBytes int // per core; Fig. 16 varies it

	// Adaptive throttling (Section V).
	ThrottlePeriod  uint64  // cycles between throttle decisions
	EarlyHighThresh float64 // early eviction rate considered "high"
	EarlyLowThresh  float64 // below this it is "low"
	MergeHighThresh float64 // merge ratio considered "high"
}

// Baseline returns the Table II machine.
func Baseline() *Config {
	return &Config{
		NumCores: 14,
		// Prefetches lose to demands in the DRAM scheduler but are
		// age-promoted after this many cycles so continuous demand
		// traffic cannot starve them forever.
		DRAMAgePromote: 512,

		MRQSize:            64,
		MRQPrefetchReserve: 32,

		PrefetchCacheBytes: 16 * 1024,

		ThrottlePeriod:  100_000,
		EarlyHighThresh: 0.02,
		EarlyLowThresh:  0.01,
		MergeHighThresh: 0.15,
	}
}

// MaxInjectPerCycle is the interconnect injection limit per core cycle.
func (c *Config) MaxInjectPerCycle() int {
	return max(c.NumCores/NOCCoresPerInject, 1)
}

// Validate reports the first configuration inconsistency found.
func (c *Config) Validate() error {
	switch {
	case c.NumCores <= 0:
		return errors.New("config: NumCores must be positive")
	case c.DRAMAgePromote < 0:
		return errors.New("config: DRAMAgePromote must be non-negative")
	case c.MRQSize <= 0:
		return errors.New("config: MRQSize must be positive")
	case c.MRQPrefetchReserve < 0 || c.MRQPrefetchReserve >= c.MRQSize:
		return errors.New("config: MRQPrefetchReserve must be in [0, MRQSize)")
	case c.PrefetchCacheBytes < 0:
		return errors.New("config: PrefetchCacheBytes must be non-negative")
	case c.PrefetchCacheBytes > 0 && c.PrefetchCacheBytes < PrefetchCacheWays*BlockBytes:
		return errors.New("config: prefetch cache too small for its associativity")
	case c.ThrottlePeriod == 0:
		return errors.New("config: ThrottlePeriod must be positive")
	case c.EarlyLowThresh < 0 || c.EarlyHighThresh < c.EarlyLowThresh:
		return errors.New("config: early-eviction thresholds out of order")
	case c.MergeHighThresh < 0 || c.MergeHighThresh > 1:
		return errors.New("config: MergeHighThresh must be in [0,1]")
	}
	return nil
}
