package mtprefetch_test

import (
	"runtime"
	"testing"
	"time"

	"mtprefetch/internal/core"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/workload"
)

// Core-loop benchmarks: unlike the experiment benchmarks above, these
// time raw core.Run invocations so the simulator's per-cycle cost and
// the event-driven cycle-skipping win are visible in isolation.
// `make bench-core` runs them and converts the output to BENCH_core.json
// via cmd/benchjson.

// coreBenchSpec scales a benchmark to two occupancy waves per core, the
// same shape the unit tests and the harness default to.
func coreBenchSpec(b *testing.B, name string) *workload.Spec {
	b.Helper()
	s := workload.ByName(name)
	if s == nil {
		b.Fatalf("unknown benchmark %s", name)
	}
	target := 14 * s.MaxBlocksPerCore * 2
	return s.Scaled(s.Blocks / target)
}

// benchCoreRun times complete simulations of one benchmark, reporting
// simulation throughput (cycles/s), how many cycles skipping elided, and
// the CPI stack: each bucket's share of all attributed core-cycles as a
// `cpi%<bucket>` metric, so BENCH_core.json records where the simulated
// machine's cycles went alongside how fast the simulator ran. The huge
// CPIEpoch keeps the epoch machinery out of the timed loop; the
// accounting itself is a handful of array increments per cycle.
func benchCoreRun(b *testing.B, name string, noskip bool) {
	spec := coreBenchSpec(b, name)
	b.ReportAllocs()
	var cycles, skipped uint64
	var buckets [obs.NumBuckets]uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sim, err := core.New(core.Options{Workload: spec, NoCycleSkip: noskip,
			Obs: obs.New(obs.Config{CPIStack: true, CPIEpoch: 1 << 40})})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		skipped += sim.SkippedCycles()
		for bk, v := range sim.CPIStack().Totals() {
			buckets[bk] += v
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(cycles)/elapsed, "cycles/s")
	}
	if cycles > 0 {
		b.ReportMetric(float64(skipped)/float64(cycles)*100, "%skipped")
	}
	var attributed uint64
	for _, v := range buckets {
		attributed += v
	}
	if attributed > 0 {
		for bk, v := range buckets {
			b.ReportMetric(float64(v)/float64(attributed)*100,
				"cpi%"+obs.Bucket(bk).String())
		}
	}
}

// BenchmarkCoreRun covers the full Table III memory-intensive suite,
// with and without cycle skipping, so BENCH_core.json records both the
// absolute simulation rate and the skip win per benchmark.
func BenchmarkCoreRun(b *testing.B) {
	for _, s := range workload.MemoryIntensive() {
		name := s.Name
		b.Run(name+"/skip", func(b *testing.B) { benchCoreRun(b, name, false) })
		b.Run(name+"/noskip", func(b *testing.B) { benchCoreRun(b, name, true) })
	}
}

// benchSkipPair times paired skip/noskip runs of one spec and reports
// the wall-clock ratio (noskip time / skip time) as a `speedup` metric,
// plus the skipped-cycle fraction.
func benchSkipPair(b *testing.B, spec *workload.Spec) {
	var tSkip, tFull time.Duration
	var cycles, skipped uint64
	for i := 0; i < b.N; i++ {
		for _, noskip := range []bool{false, true} {
			o := core.Options{Workload: spec, NoCycleSkip: noskip}
			runtime.GC() // settle: keep one leg's garbage off the other's clock
			start := time.Now()
			sim, err := core.New(o)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				b.Fatal(err)
			}
			if noskip {
				tFull += time.Since(start)
			} else {
				tSkip += time.Since(start)
				cycles += res.Cycles
				skipped += sim.SkippedCycles()
			}
		}
	}
	if tSkip > 0 {
		b.ReportMetric(float64(tFull)/float64(tSkip), "speedup")
	}
	if cycles > 0 {
		b.ReportMetric(float64(skipped)/float64(cycles)*100, "%skipped")
	}
}

// BenchmarkCoreSkipSpeedup reports the headline skip-vs-noskip ratio per
// memory-intensive benchmark at two occupancy points. The default
// two-wave scale keeps the machine busy, so most wall time sits in dense
// cycles and the ratio stays modest; the single-block-per-core `lowocc`
// variant spends most of its cycles machine-wide stalled on memory —
// the regime event-driven skipping exists for — and is where the
// headline speedup is measured.
func BenchmarkCoreSkipSpeedup(b *testing.B) {
	for _, s := range workload.MemoryIntensive() {
		spec := s
		b.Run(spec.Name, func(b *testing.B) {
			benchSkipPair(b, coreBenchSpec(b, spec.Name))
		})
		b.Run(spec.Name+"/lowocc", func(b *testing.B) {
			full := workload.ByName(spec.Name)
			benchSkipPair(b, full.Scaled(full.Blocks/14))
		})
	}
}
