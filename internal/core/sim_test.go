package core

import (
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

// tiny returns a benchmark scaled down for unit-test speed while keeping
// at least two waves of blocks per core.
func tiny(t *testing.T, name string) *workload.Spec {
	t.Helper()
	s := workload.ByName(name)
	if s == nil {
		t.Fatalf("unknown benchmark %s", name)
	}
	target := 14 * s.MaxBlocksPerCore * 2
	return s.Scaled(s.Blocks / target)
}

func mustRun(t *testing.T, o Options) *Result {
	t.Helper()
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunBaseline(t *testing.T) {
	spec := tiny(t, "monte")
	r := mustRun(t, Options{Workload: spec})
	if r.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	if r.ProgInstructions == 0 {
		t.Fatal("no instructions executed")
	}
	// Every warp ran the whole program.
	want := uint64(spec.TotalWarps) * uint64(spec.Program.DynamicCounts().Total)
	if r.ProgInstructions != want {
		t.Errorf("ProgInstructions = %d, want %d", r.ProgInstructions, want)
	}
	if r.CPI < 4 {
		t.Errorf("CPI = %.2f, below the 4-cycle issue floor", r.CPI)
	}
}

func TestDeterminism(t *testing.T) {
	spec := tiny(t, "mersenne")
	a := mustRun(t, Options{Workload: spec, Software: swpref.MTSWP})
	b := mustRun(t, Options{Workload: spec, Software: swpref.MTSWP})
	if a.Cycles != b.Cycles || a.PrefetchesIssued != b.PrefetchesIssued {
		t.Errorf("simulation not deterministic: %d/%d vs %d/%d cycles/prefetches",
			a.Cycles, a.PrefetchesIssued, b.Cycles, b.PrefetchesIssued)
	}
}

func TestPerfectMemoryFasterAndNoTraffic(t *testing.T) {
	spec := tiny(t, "monte")
	base := mustRun(t, Options{Workload: spec})
	pm := mustRun(t, Options{Workload: spec, PerfectMemory: true})
	if pm.Cycles >= base.Cycles {
		t.Errorf("perfect memory (%d cycles) not faster than base (%d)", pm.Cycles, base.Cycles)
	}
	if pm.MemTransactions != 0 {
		t.Errorf("perfect memory produced %d DRAM transactions", pm.MemTransactions)
	}
	if pm.CPI < 4 || pm.CPI > 10 {
		t.Errorf("perfect-memory CPI = %.2f, want near the issue bound", pm.CPI)
	}
}

// TestStridePrefetchingWins pins the headline direction: the sliding-window
// stride benchmark speeds up with software stride prefetching.
func TestStridePrefetchingWins(t *testing.T) {
	spec := tiny(t, "monte")
	base := mustRun(t, Options{Workload: spec})
	pf := mustRun(t, Options{Workload: spec, Software: swpref.Stride})
	if sp := pf.Speedup(base); sp < 1.15 {
		t.Errorf("monte stride-SWP speedup = %.3f, want > 1.15", sp)
	}
	if pf.Coverage < 0.3 {
		t.Errorf("coverage = %.2f, want meaningful", pf.Coverage)
	}
}

// TestIPPrefetchingCanHurt pins the paper's harm case: ocean degrades
// under inter-thread prefetching (Section VII-A).
func TestIPPrefetchingCanHurt(t *testing.T) {
	spec := tiny(t, "ocean")
	base := mustRun(t, Options{Workload: spec})
	pf := mustRun(t, Options{Workload: spec, Software: swpref.IP})
	if sp := pf.Speedup(base); sp > 1.0 {
		t.Errorf("ocean IP speedup = %.3f, expected degradation", sp)
	}
}

func TestMTHWPWins(t *testing.T) {
	spec := tiny(t, "mersenne")
	base := mustRun(t, Options{Workload: spec})
	hw := mustRun(t, Options{Workload: spec, Hardware: func() prefetch.Prefetcher {
		return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
	}})
	if sp := hw.Speedup(base); sp < 1.2 {
		t.Errorf("mersenne MT-HWP speedup = %.3f, want > 1.2", sp)
	}
}

func TestThrottleRescuesHarm(t *testing.T) {
	cfg := config.Baseline()
	cfg.ThrottlePeriod = 5_000 // scaled runs are short
	spec := tiny(t, "scalar")
	base := mustRun(t, Options{Workload: spec})
	hurt := mustRun(t, Options{Workload: spec, Software: swpref.IP})
	fixed := mustRun(t, Options{Workload: spec, Config: cfg, Software: swpref.IP, Throttle: true})
	hs, fs := hurt.Speedup(base), fixed.Speedup(base)
	if hs >= 1.0 {
		t.Skipf("scalar IP not harmful at this scale (%.3f); nothing to rescue", hs)
	}
	if fs <= hs {
		t.Errorf("throttling did not help: %.3f -> %.3f", hs, fs)
	}
	if fixed.ThrottlePeriods == 0 {
		t.Error("throttle engine never evaluated a period")
	}
}

func TestResultInvariants(t *testing.T) {
	spec := tiny(t, "cfd")
	r := mustRun(t, Options{Workload: spec, Software: swpref.MTSWP})
	if r.Accuracy < 0 || r.Accuracy > 1 {
		t.Errorf("Accuracy = %v out of range", r.Accuracy)
	}
	if r.Coverage < 0 || r.Coverage > 1 {
		t.Errorf("Coverage = %v out of range", r.Coverage)
	}
	if r.LateFraction < 0 || r.LateFraction > 1 {
		t.Errorf("LateFraction = %v out of range", r.LateFraction)
	}
	if r.PFCacheHits > r.DemandTransactions {
		t.Errorf("more cache hits (%d) than demand transactions (%d)",
			r.PFCacheHits, r.DemandTransactions)
	}
	if r.UsefulPrefetches > r.PrefetchesIssued+r.LatePrefetches {
		t.Errorf("useful (%d) exceeds issued+late (%d+%d)",
			r.UsefulPrefetches, r.PrefetchesIssued, r.LatePrefetches)
	}
	if r.BytesTransferred != r.MemTransactions*64 {
		t.Errorf("BytesTransferred inconsistent with MemTransactions")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("nil workload accepted")
	}
	bad := config.Baseline()
	bad.NumCores = 0
	if _, err := Run(Options{Workload: tiny(t, "monte"), Config: bad}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	spec := tiny(t, "monte")
	if _, err := Run(Options{Workload: spec, MaxCycles: 100}); err == nil {
		t.Error("100-cycle cap should fail loudly")
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := &Result{Cycles: 100}
	b := &Result{Cycles: 50}
	if got := b.Speedup(a); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
	zero := &Result{}
	if got := zero.Speedup(a); got != 0 {
		t.Errorf("Speedup with zero cycles = %v, want 0", got)
	}
}

func TestNonIntensiveUnaffectedByPrefetching(t *testing.T) {
	// Table IV: prefetching does not significantly change compute-bound
	// benchmarks.
	s := workload.ByName("binomial")
	spec := s.Scaled(s.Blocks / (14 * s.MaxBlocksPerCore * 2))
	base := mustRun(t, Options{Workload: spec})
	hw := mustRun(t, Options{Workload: spec, Hardware: func() prefetch.Prefetcher {
		return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
	}})
	sp := hw.Speedup(base)
	if sp < 0.9 || sp > 1.1 {
		t.Errorf("binomial speedup with MT-HWP = %.3f, want ~1.0", sp)
	}
}

func TestCoreCountSweep(t *testing.T) {
	// The simulator must run with non-baseline core counts (Fig. 18).
	for _, n := range []int{8, 20} {
		cfg := config.Baseline()
		cfg.NumCores = n
		r := mustRun(t, Options{Workload: tiny(t, "mersenne"), Config: cfg})
		if r.Cycles == 0 {
			t.Errorf("%d cores: zero cycles", n)
		}
	}
}

func TestZeroPrefetchCache(t *testing.T) {
	cfg := config.Baseline()
	cfg.PrefetchCacheBytes = 0
	r := mustRun(t, Options{Workload: tiny(t, "monte"), Config: cfg, Software: swpref.Stride})
	if r.PFCacheHits != 0 {
		t.Errorf("cache hits with no cache: %d", r.PFCacheHits)
	}
}

func TestPollutionFilterDropsHarmfulPCs(t *testing.T) {
	// scalar's IP prefetches are heavily early-evicted; the pollution
	// filter should identify the PCs and drop candidates.
	spec := tiny(t, "scalar")
	base := mustRun(t, Options{Workload: spec})
	blind := mustRun(t, Options{Workload: spec, Software: swpref.IP})
	filtered := mustRun(t, Options{Workload: spec, Software: swpref.IP, PollutionFilter: true})
	if filtered.DroppedByFilter == 0 {
		t.Fatal("filter dropped nothing on a pollution-heavy workload")
	}
	if filtered.Speedup(base) <= blind.Speedup(base) {
		t.Errorf("filter did not help: blind %.3f vs filtered %.3f",
			blind.Speedup(base), filtered.Speedup(base))
	}
}
