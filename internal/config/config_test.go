package config

import (
	"math"
	"testing"
)

func TestBaselineValid(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatalf("baseline config invalid: %v", err)
	}
}

func TestBaselineMatchesTableII(t *testing.T) {
	c := Baseline()
	if c.NumCores != 14 {
		t.Errorf("NumCores = %d, want 14", c.NumCores)
	}
	if c.SIMDWidth != 8 {
		t.Errorf("SIMDWidth = %d, want 8", c.SIMDWidth)
	}
	if c.WarpSize != 32 {
		t.Errorf("WarpSize = %d, want 32", c.WarpSize)
	}
	if c.IssueCostIMul != 16 || c.IssueCostFDiv != 32 || c.IssueCostALU != 4 {
		t.Errorf("issue costs = %d/%d/%d, want 4/16/32",
			c.IssueCostALU, c.IssueCostIMul, c.IssueCostFDiv)
	}
	if c.DRAMChannels != 8 || c.DRAMBanks != 16 || c.DRAMRowBytes != 2048 {
		t.Errorf("DRAM geometry = %d ch / %d banks / %dB rows, want 8/16/2048",
			c.DRAMChannels, c.DRAMBanks, c.DRAMRowBytes)
	}
	if c.DRAMtCL != 11 || c.DRAMtRCD != 11 || c.DRAMtRP != 13 {
		t.Errorf("DRAM timing = %d/%d/%d, want 11/11/13", c.DRAMtCL, c.DRAMtRCD, c.DRAMtRP)
	}
	if c.PrefetchCacheBytes != 16*1024 || c.PrefetchCacheWays != 8 {
		t.Errorf("prefetch cache = %dB %d-way, want 16KB 8-way",
			c.PrefetchCacheBytes, c.PrefetchCacheWays)
	}
	if c.NOCLatency != 20 {
		t.Errorf("NOCLatency = %d, want 20", c.NOCLatency)
	}
}

func TestBandwidthMatches57GBs(t *testing.T) {
	got := Baseline().BandwidthGBs()
	if math.Abs(got-57.6) > 1e-9 {
		t.Errorf("BandwidthGBs = %v, want 57.6", got)
	}
}

func TestDRAMCyclesToCore(t *testing.T) {
	c := Baseline()
	// 900/1200 = 3/4: 11 DRAM cycles -> ceil(8.25) = 9 core cycles.
	if got := c.DRAMCyclesToCore(11); got != 9 {
		t.Errorf("DRAMCyclesToCore(11) = %d, want 9", got)
	}
	if got := c.DRAMCyclesToCore(0); got != 0 {
		t.Errorf("DRAMCyclesToCore(0) = %d, want 0", got)
	}
	if got := c.DRAMCyclesToCore(4); got != 3 {
		t.Errorf("DRAMCyclesToCore(4) = %d, want 3", got)
	}
}

func TestMaxInjectPerCycle(t *testing.T) {
	c := Baseline()
	if got := c.MaxInjectPerCycle(); got != 7 {
		t.Errorf("MaxInjectPerCycle = %d, want 7 (14 cores / 2)", got)
	}
	c.NumCores = 1
	if got := c.MaxInjectPerCycle(); got != 1 {
		t.Errorf("MaxInjectPerCycle with 1 core = %d, want 1", got)
	}
}

func TestPrefetchCacheSets(t *testing.T) {
	c := Baseline()
	// 16KB / 64B = 256 lines / 8 ways = 32 sets.
	if got := c.PrefetchCacheSets(); got != 32 {
		t.Errorf("PrefetchCacheSets = %d, want 32", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := Baseline()
	d := c.Clone()
	d.NumCores = 99
	if c.NumCores == 99 {
		t.Fatal("Clone shares state with original")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero cores", func(c *Config) { c.NumCores = 0 }},
		{"negative cores", func(c *Config) { c.NumCores = -3 }},
		{"warp not multiple of simd", func(c *Config) { c.WarpSize = 30 }},
		{"zero ALU cost", func(c *Config) { c.IssueCostALU = 0 }},
		{"zero clock", func(c *Config) { c.CoreClockMHz = 0 }},
		{"negative NOC latency", func(c *Config) { c.NOCLatency = -1 }},
		{"zero inject divisor", func(c *Config) { c.NOCCoresPerInject = 0 }},
		{"non power-of-two block", func(c *Config) { c.BlockBytes = 48 }},
		{"non power-of-two channels", func(c *Config) { c.DRAMChannels = 3 }},
		{"non power-of-two banks", func(c *Config) { c.DRAMBanks = 12 }},
		{"row smaller than block", func(c *Config) { c.DRAMRowBytes = 32 }},
		{"negative tCL", func(c *Config) { c.DRAMtCL = -1 }},
		{"zero queue", func(c *Config) { c.DRAMQueueSize = 0 }},
		{"zero bus cycles", func(c *Config) { c.BusCyclesBlock = 0 }},
		{"zero MRQ", func(c *Config) { c.MRQSize = 0 }},
		{"cache ways zero", func(c *Config) { c.PrefetchCacheWays = 0 }},
		{"cache smaller than one set", func(c *Config) { c.PrefetchCacheBytes = 64; c.PrefetchCacheWays = 8 }},
		{"zero throttle period", func(c *Config) { c.ThrottlePeriod = 0 }},
		{"throttle degree out of range", func(c *Config) { c.ThrottleInitDegree = 6 }},
		{"early thresholds inverted", func(c *Config) { c.EarlyHighThresh = 0.001 }},
		{"merge threshold above 1", func(c *Config) { c.MergeHighThresh = 1.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Baseline()
			tc.mutate(c)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate accepted bad config %q", tc.name)
			}
		})
	}
}

func TestZeroPrefetchCacheAllowed(t *testing.T) {
	c := Baseline()
	c.PrefetchCacheBytes = 0 // no prefetch cache at all
	if err := c.Validate(); err != nil {
		t.Fatalf("zero-size prefetch cache should be valid: %v", err)
	}
}

func TestValidateReserveAndAgePromote(t *testing.T) {
	c := Baseline()
	c.MRQPrefetchReserve = c.MRQSize
	if err := c.Validate(); err == nil {
		t.Error("reserve equal to MRQ size accepted")
	}
	c = Baseline()
	c.DRAMAgePromote = -1
	if err := c.Validate(); err == nil {
		t.Error("negative age promote accepted")
	}
}
