// Ablation benchmarks for the design decisions DESIGN.md calls out. Each
// reports its effect as a speedup metric:
//
//	go test -run '^$' -bench Ablation -benchtime 1x .
package mtprefetch_test

import (
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/swpref"
)

func ablationRun(b *testing.B, o core.Options) *core.Result {
	b.Helper()
	r, err := core.Run(o)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationAgePromote measures the DRAM prefetch age-promotion
// mechanism: without it, strict demand priority starves prefetches.
func BenchmarkAblationAgePromote(b *testing.B) {
	spec := coreBenchSpec(b, "monte")
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, core.Options{Workload: spec})
		with := ablationRun(b, core.Options{Workload: spec, Software: swpref.Stride})
		cfg := config.Baseline()
		cfg.DRAMAgePromote = 0
		without := ablationRun(b, core.Options{Config: cfg, Workload: spec, Software: swpref.Stride})
		b.ReportMetric(with.Speedup(base), "speedup-with-promote")
		b.ReportMetric(without.Speedup(base), "speedup-without")
	}
}

// BenchmarkAblationMRQReserve measures the MRQ prefetch reservation:
// without reserved entries, demand traffic starves the prefetcher at the
// queue.
func BenchmarkAblationMRQReserve(b *testing.B) {
	spec := coreBenchSpec(b, "monte")
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, core.Options{Workload: spec})
		with := ablationRun(b, core.Options{Workload: spec, Software: swpref.Stride})
		cfg := config.Baseline()
		cfg.MRQSize = cfg.MRQSize - cfg.MRQPrefetchReserve
		cfg.MRQPrefetchReserve = 0
		without := ablationRun(b, core.Options{Config: cfg, Workload: spec, Software: swpref.Stride})
		b.ReportMetric(with.Speedup(base), "speedup-with-reserve")
		b.ReportMetric(without.Speedup(base), "speedup-without")
	}
}
