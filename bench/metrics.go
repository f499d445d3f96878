package main

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same metrics; TestBenchmarkJSONMatches keeps
// the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
	// exact marks a count the simulator makes: identical on every run of
	// the same code and seed.
	exact bool
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off on every workload.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
}

// benchNames are the Table III benchmarks suite-base reports a
// throughput for, in table order.
var benchNames = []string{"black", "conv", "mersenne", "monte", "pns", "scalar", "stream",
	"backprop", "cell", "ocean", "bfs", "cfd", "linear", "sepia"}

// perLayer are the metrics of single layers, measured in the traced run.
// A metric of a layer a workload does not use reads 0 on that workload.
var perLayer = func() []metricDef {
	count := func(name string) metricDef {
		return metricDef{name: name, unit: "count", better: "lower", exact: true}
	}
	rate := func(name, better string) metricDef {
		return metricDef{name: name, unit: "ratio", better: better, exact: true}
	}
	timing := func(name, unit string) metricDef {
		return metricDef{name: name, unit: unit, better: "lower"}
	}
	share := func(name string) metricDef {
		return metricDef{name: name, unit: "share", better: "lower"}
	}
	defs := []metricDef{
		count("harness.runs"),
		timing("harness.run_p50_ms", "ms"),
		timing("harness.run_p90_ms", "ms"),
		timing("harness.run_max_ms", "ms"),
		{name: "harness.parallel_eff", unit: "ratio", better: "higher"},
		share("harness.cpu_share"),

		count("store.puts"),
		{name: "store.hits", unit: "count", better: "higher", exact: true},
		count("store.misses"),
		count("store.quarantined"),
		timing("store.read_s", "s"),
		timing("store.write_s", "s"),
		{name: "store.bytes_read", unit: "bytes", better: "lower", exact: true},
		{name: "store.bytes_written", unit: "bytes", better: "lower", exact: true},
		timing("store.resume_s", "s"),
		share("store.cpu_share"),

		{name: "obs.bytes_metrics", unit: "bytes", better: "lower", exact: true},
		{name: "obs.bytes_pfreport", unit: "bytes", better: "lower", exact: true},
		{name: "obs.bytes_cpistack", unit: "bytes", better: "lower", exact: true},
		{name: "obs.bytes_spans", unit: "bytes", better: "lower", exact: true},
		timing("obs.write_s", "s"),
		share("obs.cpu_share"),

		timing("core.new_s", "s"),
		timing("core.run_s", "s"),
		count("core.cycles"),
		count("core.visited_cycles"),
		rate("core.skipped_frac", "higher"),
		timing("core.ns_per_visited_cycle", "ns"),
		{name: "core.cycles_per_s", unit: "cycles/s", better: "higher"},
		rate("core.paper_cpi_err", "lower"),
		share("core.calendar_share"),
		share("core.loop_share"),
	}
	for _, b := range benchNames {
		defs = append(defs, metricDef{name: "core.cycles_per_s." + b, unit: "cycles/s", better: "higher"})
	}
	return append(defs,
		count("smcore.instructions"),
		count("smcore.demand_transactions"),
		count("smcore.issue_stall_full_mrq"),
		share("smcore.cpu_share"),

		count("mrq.arrivals"),
		rate("mrq.merge_ratio", "higher"),
		count("mrq.rejects"),
		share("mrq.cpu_share"),

		count("noc.requests_injected"),
		count("noc.inject_stalls"),
		share("noc.cpu_share"),

		count("dram.transactions"),
		rate("dram.row_hit_rate", "higher"),
		count("dram.inter_core_merges"),
		count("dram.rejects"),
		share("dram.cpu_share"),

		count("prefetch.generated"),
		count("prefetch.issued"),
		rate("prefetch.accuracy", "higher"),
		rate("prefetch.late_frac", "lower"),
		metricDef{name: "pfcache.hits", unit: "count", better: "higher", exact: true},
		count("throttle.periods"),
		share("prefetch.cpu_share"),
		share("cache.cpu_share"),

		timing("workload.load_s", "s"),
		timing("workload.parse_s", "s"),
		metricDef{name: "workload.kernels", unit: "count", better: "higher", exact: true},
		share("workload.cpu_share"),

		metricDef{name: "runtime.allocs_per_run", unit: "count", better: "lower"},
		metricDef{name: "runtime.bytes_per_run", unit: "bytes", better: "lower"},
		metricDef{name: "runtime.gc_count", unit: "count", better: "lower"},
		share("runtime.gc_share"),
		share("runtime.cpu_share"),

		share("other.cpu_share"),
		metricDef{name: "trace.overhead_pct", unit: "%", better: "lower"},
	)
}()

// registryNames are the registry counters the per-layer counts derive
// from, summed over every simulation of one pass.
var registryNames = []string{
	"smcore.instructions", "smcore.demand_transactions", "smcore.issue_stall_full_mrq",
	"smcore.prefetches_generated", "smcore.prefetches_issued", "smcore.late_prefetches",
	"smcore.pfcache_hit_transactions", "pfcache.first_uses",
	"mrq.demands", "mrq.prefetches", "mrq.writebacks", "mrq.merges", "mrq.rejects",
	"noc.requests_injected", "noc.inject_stalls",
	"dram.demands", "dram.prefetches", "dram.writebacks", "dram.row_hits", "dram.row_misses",
	"dram.row_closed", "dram.inter_core_merges", "dram.rejects",
	"throttle.periods",
}

// layerCounts derives the per-layer count metrics from registry sums.
func layerCounts(c map[string]float64) map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	arrivals := c["mrq.demands"] + c["mrq.prefetches"] + c["mrq.writebacks"] + c["mrq.merges"]
	rowHits := c["dram.row_hits"]
	issued := c["smcore.prefetches_issued"]
	return map[string]float64{
		"smcore.instructions":         c["smcore.instructions"],
		"smcore.demand_transactions":  c["smcore.demand_transactions"],
		"smcore.issue_stall_full_mrq": c["smcore.issue_stall_full_mrq"],
		"mrq.arrivals":                arrivals,
		"mrq.merge_ratio":             ratio(c["mrq.merges"], arrivals),
		"mrq.rejects":                 c["mrq.rejects"],
		"noc.requests_injected":       c["noc.requests_injected"],
		"noc.inject_stalls":           c["noc.inject_stalls"],
		"dram.transactions":           c["dram.demands"] + c["dram.prefetches"] + c["dram.writebacks"],
		"dram.row_hit_rate":           ratio(rowHits, rowHits+c["dram.row_misses"]+c["dram.row_closed"]),
		"dram.inter_core_merges":      c["dram.inter_core_merges"],
		"dram.rejects":                c["dram.rejects"],
		"prefetch.generated":          c["smcore.prefetches_generated"],
		"prefetch.issued":             issued,
		"prefetch.accuracy":           ratio(c["pfcache.first_uses"], issued),
		"prefetch.late_frac":          ratio(c["smcore.late_prefetches"], issued),
		"pfcache.hits":                c["smcore.pfcache_hit_transactions"],
		"throttle.periods":            c["throttle.periods"],
	}
}
