package config

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"strings"
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
	if SIMDWidth != 8 {
		t.Errorf("SIMDWidth = %d, want 8", SIMDWidth)
	}
	if WarpSize != 32 {
		t.Errorf("WarpSize = %d, want 32", WarpSize)
	}
	if IssueCostIMul != 16 || IssueCostFDiv != 32 || IssueCostALU != 4 {
		t.Errorf("issue costs = %d/%d/%d, want 4/16/32",
			IssueCostALU, IssueCostIMul, IssueCostFDiv)
	}
	if DRAMChannels != 8 || DRAMBanks != 16 || DRAMRowBytes != 2048 {
		t.Errorf("DRAM geometry = %d ch / %d banks / %dB rows, want 8/16/2048",
			DRAMChannels, DRAMBanks, DRAMRowBytes)
	}
	if DRAMtCL != 11 || DRAMtRCD != 11 || DRAMtRP != 13 {
		t.Errorf("DRAM timing = %d/%d/%d, want 11/11/13", DRAMtCL, DRAMtRCD, DRAMtRP)
	}
	if c.PrefetchCacheBytes != 16*1024 || PrefetchCacheWays != 8 {
		t.Errorf("prefetch cache = %dB %d-way, want 16KB 8-way",
			c.PrefetchCacheBytes, PrefetchCacheWays)
	}
	if NOCLatency != 20 {
		t.Errorf("NOCLatency = %d, want 20", NOCLatency)
	}
}

// TestMachineRelations checks the relations the simulator assumes of the
// fixed machine: the address mapping shifts and masks by the block size,
// channel and bank counts, a warp instruction occupies whole SIMD passes,
// and every cost, clock, size and divisor is positive.
func TestMachineRelations(t *testing.T) {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	for _, r := range []struct {
		name string
		ok   bool
	}{
		{"SIMDWidth and WarpSize positive", SIMDWidth > 0 && WarpSize > 0},
		{"WarpSize a multiple of SIMDWidth", WarpSize%SIMDWidth == 0},
		{"issue costs positive", IssueCostALU > 0 && IssueCostIMul > 0 && IssueCostFDiv > 0 && IssueCostMem > 0},
		{"clocks positive", CoreClockMHz > 0 && DRAMClockMHz > 0},
		{"NOCLatency non-negative", NOCLatency >= 0},
		{"NOCCoresPerInject positive", NOCCoresPerInject > 0},
		{"BlockBytes a power of two", pow2(BlockBytes)},
		{"DRAMChannels a power of two", pow2(DRAMChannels)},
		{"DRAMBanks a power of two", pow2(DRAMBanks)},
		{"DRAMRowBytes at least BlockBytes", DRAMRowBytes >= BlockBytes},
		{"DRAM timings non-negative", DRAMtCL >= 0 && DRAMtRCD >= 0 && DRAMtRP >= 0},
		{"DRAMQueueSize positive", DRAMQueueSize > 0},
		{"BusCyclesBlock positive", BusCyclesBlock > 0},
		{"DRAMOverhead non-negative", DRAMOverhead >= 0},
		{"PrefetchCacheWays positive", PrefetchCacheWays > 0},
		{"ThrottleInitDegree in [0,5]", ThrottleInitDegree >= 0 && ThrottleInitDegree <= 5},
	} {
		if !r.ok {
			t.Errorf("machine constants break %q", r.name)
		}
	}
}

// TestMachineRendersEveryConstant: Machine names every constant of the
// fixed-machine block, in declaration order, so a fingerprint over it
// covers each of them, and a constant added to the block without
// Machine fails here.
func TestMachineRendersEveryConstant(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "config.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var consts, rendered []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			if d.Tok != token.CONST || consts != nil {
				continue // the first const block is the machine
			}
			for _, s := range d.Specs {
				for _, n := range s.(*ast.ValueSpec).Names {
					consts = append(consts, n.Name)
				}
			}
		case *ast.FuncDecl:
			if d.Name.Name != "Machine" {
				continue
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != "fmt" && id.Name != "Sprint" {
					rendered = append(rendered, id.Name)
				}
				return true
			})
		}
	}
	if strings.Join(rendered, " ") != strings.Join(consts, " ") {
		t.Errorf("Machine renders %v,\nwant the fixed machine %v", rendered, consts)
	}
}

func TestBandwidthMatches57GBs(t *testing.T) {
	if math.Abs(BandwidthGBs-57.6) > 1e-9 {
		t.Errorf("BandwidthGBs = %v, want 57.6", BandwidthGBs)
	}
}

// TestDRAMCyclesToCore: the core-cycle DRAM timings round the DRAM-cycle
// ones up by the 900/1200 clock ratio: 11 -> ceil(8.25) = 9, 13 -> 10.
func TestDRAMCyclesToCore(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, dram int
	}{{"TCL", TCL, DRAMtCL}, {"TRCD", TRCD, DRAMtRCD}, {"TRP", TRP, DRAMtRP}} {
		want := int(math.Ceil(float64(c.dram) * CoreClockMHz / DRAMClockMHz))
		if c.got != want {
			t.Errorf("%s = %d, want %d (%d DRAM cycles)", c.name, c.got, want, c.dram)
		}
	}
	if TCL != 9 || TRCD != 9 || TRP != 10 {
		t.Errorf("tCL/tRCD/tRP = %d/%d/%d core cycles, want 9/9/10", TCL, TRCD, TRP)
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

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero cores", func(c *Config) { c.NumCores = 0 }},
		{"negative cores", func(c *Config) { c.NumCores = -3 }},
		{"zero MRQ", func(c *Config) { c.MRQSize = 0 }},
		{"cache smaller than one set", func(c *Config) { c.PrefetchCacheBytes = 64 }},
		{"zero throttle period", func(c *Config) { c.ThrottlePeriod = 0 }},
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
