package mtprefetch_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mtprefetch/internal/core"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/workload"
)

// Allocation gates. The claim they guard is that the steady-state
// simulation loop stays off the allocator: flat warp state,
// ring-buffered queues, free-listed requests and DRAM entries, and
// arena-carved observability epochs.

// budgetFile maps each allocConfig name to the most heap allocations
// one complete run of it may perform. Its git history is the audit
// trail of every budget change.
const budgetFile = "ci/alloc_budget.json"

// coreBenchSpec scales a benchmark to two occupancy waves per core, the
// same shape the unit tests and the harness default to.
func coreBenchSpec(tb testing.TB, name string) *workload.Spec {
	tb.Helper()
	s := workload.ByName(name)
	if s == nil {
		tb.Fatalf("unknown benchmark %s", name)
	}
	target := 14 * s.MaxBlocksPerCore * 2
	return s.Scaled(s.Blocks / target)
}

// allocConfig is one budgeted run: a benchmark under the prefetching
// options in opts, with an observer built from obs attached (nil
// detaches observability entirely).
type allocConfig struct {
	name  string
	bench string
	opts  core.Options
	obs   *obs.Config
}

// allocConfigs covers one benchmark per Table III access type (stride,
// merge-path, uncoalesced), with and without observability, so the
// budgets pin the allocation floor of each traffic shape.
func allocConfigs() []allocConfig {
	obsCfg := &obs.Config{SampleEvery: 1 << 40, CPIStack: true}
	var cs []allocConfig
	for _, name := range []string{"black", "stream", "bfs"} {
		cs = append(cs,
			allocConfig{name: name + "/obs", bench: name, obs: obsCfg},
			allocConfig{name: name + "/noobs", bench: name})
	}
	// mthwp pins the prefetch issue path: MT-HWP (PWS+GS+IP) with
	// throttling on a prefetch-heavy stream, observability detached.
	mthwp := core.Options{Throttle: true, Hardware: func() prefetch.Prefetcher {
		return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
	}}
	return append(cs, allocConfig{name: "stream/mthwp", bench: "stream", opts: mthwp})
}

// runAllocs returns the heap allocations of one complete run of c on
// spec: building its observer and simulator, and running it.
func runAllocs(t *testing.T, c allocConfig, spec *workload.Spec) uint64 {
	t.Helper()
	o := c.opts
	o.Workload = spec
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if c.obs != nil {
		o.Obs = obs.New(*c.obs)
	}
	sim, err := core.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// budgetViolations matches measured allocation counts against budgets,
// both keyed by config name, and returns one sorted message per count
// over its budget, per budget with no config (a rename must not
// silently disable its gate) and per config with no budget (a new
// config must be budgeted before it gates anything).
func budgetViolations(measured, budget map[string]uint64) []string {
	var bad []string
	for name, n := range measured {
		limit, ok := budget[name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no budget", name))
		case n > limit:
			bad = append(bad, fmt.Sprintf("%s: %d allocations exceed budget %d", name, n, limit))
		}
	}
	for name := range budget {
		if _, ok := measured[name]; !ok {
			bad = append(bad, fmt.Sprintf("%s: budgeted, but no such config", name))
		}
	}
	sort.Strings(bad)
	return bad
}

func TestBudgetViolations(t *testing.T) {
	budget := map[string]uint64{"a": 10, "b": 20}
	for _, tc := range []struct {
		name     string
		measured map[string]uint64
		want     []string
	}{
		{"within budget", map[string]uint64{"a": 10, "b": 1}, nil},
		{"over budget", map[string]uint64{"a": 11, "b": 20},
			[]string{"a: 11 allocations exceed budget 10"}},
		{"budget with no config", map[string]uint64{"a": 1},
			[]string{"b: budgeted, but no such config"}},
		{"config with no budget", map[string]uint64{"a": 1, "b": 1, "c": 0},
			[]string{"c: no budget"}},
		{"all three", map[string]uint64{"a": 99, "c": 1},
			[]string{"a: 99 allocations exceed budget 10", "b: budgeted, but no such config", "c: no budget"}},
	} {
		got := budgetViolations(tc.measured, budget)
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestAllocBudget is the allocation gate: one complete run of each
// allocConfig must stay within its budget in budgetFile. Allocation
// counts are deterministic per config, and the race detector adds a
// dozen at most, so the gate holds under -race too. GOMAXPROCS is pinned
// to 1 so background runtime work cannot interleave with a measured run.
func TestAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data, err := os.ReadFile(budgetFile)
	if err != nil {
		t.Fatal(err)
	}
	var budget map[string]uint64
	if err := json.Unmarshal(data, &budget); err != nil {
		t.Fatalf("parse %s: %v", budgetFile, err)
	}
	measured := make(map[string]uint64)
	for _, c := range allocConfigs() {
		n := runAllocs(t, c, coreBenchSpec(t, c.bench))
		t.Logf("%s: %d allocations (budget %d)", c.name, n, budget[c.name])
		measured[c.name] = n
	}
	for _, v := range budgetViolations(measured, budget) {
		t.Errorf("%s: %s", budgetFile, v)
	}
}

// measureRun runs one complete simulation of spec with obs detached and
// returns the heap allocations it performed and the cycles it actually
// visited (skipped spans excluded — skipped cycles do no per-cycle work,
// so counting them would dilute the per-cycle allocation rate).
func measureRun(t *testing.T, spec *workload.Spec) (allocs, visited uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sim, err := core.New(core.Options{Workload: spec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, res.Cycles - sim.SkippedCycles()
}

// TestSteadyStateAllocs is the AllocsPerRun-style gate on the tentpole
// claim itself: with observability detached, the post-warmup simulation
// loop performs ~0 allocations per visited cycle. Comparing a short and
// a long run of the same workload cancels the setup cost (both pay the
// same machine construction and warm-up ramp), so the differential
// isolates the steady-state rate. The threshold of 0.01 allocs per
// extra visited cycle allows stragglers like late free-list growth
// while failing two orders of magnitude below the naive per-cycle
// allocation pattern this guards against.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-wave simulation runs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range []string{"black", "stream"} {
		full := workload.ByName(name)
		target := 14 * full.MaxBlocksPerCore
		short := full.Scaled(full.Blocks / (target * 2))
		long := full.Scaled(full.Blocks / (target * 6))

		// Warm the process (lazy runtime structures, one-time pools held
		// in package state) so neither measured run pays first-use costs.
		measureRun(t, short)

		// Take the best of three trials: an unlucky GC or background
		// runtime allocation can inflate one differential, but cannot
		// deflate it — the minimum is the honest steady-state rate.
		best := 1e18
		for trial := 0; trial < 3 && best > 0.01; trial++ {
			shortAllocs, shortVisited := measureRun(t, short)
			longAllocs, longVisited := measureRun(t, long)
			if longVisited <= shortVisited {
				t.Fatalf("%s: long run visited %d cycles <= short run's %d", name, longVisited, shortVisited)
			}
			extra := float64(longAllocs) - float64(shortAllocs)
			if rate := extra / float64(longVisited-shortVisited); rate < best {
				best = rate
			}
		}
		if best > 0.01 {
			t.Errorf("%s: steady state allocates %.4f objects per visited cycle, want <= 0.01", name, best)
		}
	}
}
