// Ablation benchmarks for the design decisions DESIGN.md calls out, plus
// the implemented extensions. Each reports its effect as a speedup metric:
//
//	go test -bench=Ablation -benchmem
package mtprefetch_test

import (
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/core"
	"mtprefetch/internal/prefetch"
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

// mthwpFactory builds the paper's full MT-HWP.
func mthwpFactory() prefetch.Prefetcher {
	return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
}

// BenchmarkAblationScheduler compares switch-on-stall (the paper's
// scheduler) against per-instruction round-robin under MT-HWP.
func BenchmarkAblationScheduler(b *testing.B) {
	spec := coreBenchSpec(b, "mersenne")
	for i := 0; i < b.N; i++ {
		sos := ablationRun(b, core.Options{Workload: spec, Hardware: mthwpFactory})
		cfg := config.Baseline()
		cfg.Scheduler = config.RoundRobin
		rr := ablationRun(b, core.Options{Config: cfg, Workload: spec, Hardware: mthwpFactory})
		b.ReportMetric(float64(rr.Cycles)/float64(sos.Cycles), "rr-vs-sos-cycles")
	}
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

// BenchmarkAblationHarmControl compares the paper's adaptive throttle
// against the related-work pollution filter (Zhuang & Lee) on a
// pollution-heavy workload.
func BenchmarkAblationHarmControl(b *testing.B) {
	spec := coreBenchSpec(b, "scalar")
	cfg := config.Baseline()
	cfg.ThrottlePeriod = 10_000
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, core.Options{Config: cfg, Workload: spec})
		blind := ablationRun(b, core.Options{Config: cfg, Workload: spec, Software: swpref.IP})
		throttled := ablationRun(b, core.Options{Config: cfg, Workload: spec, Software: swpref.IP, Throttle: true})
		filtered := ablationRun(b, core.Options{Config: cfg, Workload: spec, Software: swpref.IP, PollutionFilter: true})
		b.ReportMetric(blind.Speedup(base), "blind")
		b.ReportMetric(throttled.Speedup(base), "throttle")
		b.ReportMetric(filtered.Speedup(base), "pollution-filter")
	}
}

// BenchmarkAblationGHBLocalization compares CZone (AC/DC) vs PC (PC/DC)
// localization of the GHB.
func BenchmarkAblationGHBLocalization(b *testing.B) {
	spec := coreBenchSpec(b, "scalar")
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, core.Options{Workload: spec})
		acdc := ablationRun(b, core.Options{Workload: spec, Hardware: func() prefetch.Prefetcher {
			return prefetch.NewGHB(prefetch.GHBOptions{WarpAware: true})
		}})
		pcdc := ablationRun(b, core.Options{Workload: spec, Hardware: func() prefetch.Prefetcher {
			return prefetch.NewGHB(prefetch.GHBOptions{WarpAware: true, PCLocalized: true})
		}})
		b.ReportMetric(acdc.Speedup(base), "acdc")
		b.ReportMetric(pcdc.Speedup(base), "pcdc")
	}
}

// BenchmarkAblationPrefetchDegree sweeps the prefetch degree of MT-HWP.
func BenchmarkAblationPrefetchDegree(b *testing.B) {
	spec := coreBenchSpec(b, "mersenne")
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, core.Options{Workload: spec})
		for _, deg := range []int{1, 2, 4} {
			d := deg
			r := ablationRun(b, core.Options{Workload: spec, Hardware: func() prefetch.Prefetcher {
				return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true, Degree: d})
			}})
			b.ReportMetric(r.Speedup(base), map[int]string{1: "deg1", 2: "deg2", 4: "deg4"}[deg])
		}
	}
}
