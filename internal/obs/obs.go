// Package obs is the simulator's cycle-level observability layer. One
// Observer bundles a run's pieces; Config enables each but the Registry:
//
//   - a metrics Registry of named counters, gauges, and histograms,
//     labelled by core and component. Components register pointers to
//     their existing Stats fields (or read functions for derived values)
//     once at build time, so the hot simulation path is untouched — the
//     registry only reads state when a sample or an end-of-run
//     aggregation asks for it.
//   - an epoch Sampler that snapshots derived time series (IPC, MPKI,
//     prefetch accuracy/coverage, merge ratio, early-eviction rate,
//     throttle degree, DRAM row-hit rate, MSHR occupancy, ...) every N
//     cycles and exports them as JSONL.
//   - a structured event Tracer: a fixed-capacity ring of simulation
//     events (prefetch issued/dropped, throttle transitions, early
//     evictions, stride promotions) exported as Chrome trace-event JSON
//     loadable in Perfetto or chrome://tracing, one track per core.
//   - a PFReport: per-(source, PC) prefetch provenance and lifecycle
//     outcomes, with conservation checks (pfreport.go).
//   - a CPIStack: per-core cycle accounting in which every core-cycle
//     lands in exactly one loss bucket, with an epoch time series and
//     latency-tolerance snapshots (cpistack.go).
//   - a SpanSet: a deterministic sample of memory requests stamped at
//     every stage of their lifecycle, aggregated into per-stage latency
//     histograms (span.go).
//
// A Sink (sink.go) fans many runs' observers into shared output files:
// the four JSONL streams (metrics, pfreport, cpistack, spans) and one
// Chrome trace, and returns each run's rendered streams for the result
// store.
//
// Everything is nil-safe: a nil *Registry, *Sampler, *Tracer, *PFReport,
// *CPIStack, *SpanSet, or *Sink accepts every call and does nothing, so
// instrumentation sites never need to branch and a disabled run pays
// only a nil check.
package obs

// Config selects which observability pieces a run gets.
type Config struct {
	// SampleEvery is the epoch length in cycles between time-series
	// samples; 0 disables the sampler.
	SampleEvery uint64
	// TraceCapacity is the event ring size; 0 disables tracing.
	// DefaultTraceCapacity is a reasonable value.
	TraceCapacity int
	// PFReport enables prefetch provenance and lifecycle attribution
	// (per-source/per-PC outcome accounting).
	PFReport bool
	// CPIStack enables per-core cycle accounting: every core-cycle is
	// attributed to exactly one CPI-stack bucket, with an epoch time
	// series and latency-tolerance snapshots (cpistack.go).
	CPIStack bool
	// CPIEpoch is the CPI-stack epoch length in cycles; 0 inherits
	// SampleEvery, and DefaultCPIEpoch when that is 0 too. A Sink
	// resolves it before it turns the sampler off for want of a metrics
	// writer, so SampleEvery sets the epochs with or without metrics.
	CPIEpoch uint64
	// Spans enables request-level span tracing: a deterministic sample
	// of memory requests carries a lifecycle stamp record, aggregated
	// into per-(source, stage) latency histograms (span.go).
	Spans bool
	// SpanEvery is the span sampling divisor (one in SpanEvery requests
	// is sampled); 0 means DefaultSpanEvery.
	SpanEvery uint64
}

// DefaultTraceCapacity bounds the trace ring at a size that holds the
// interesting dynamics of a scaled-down run (~64k events) without
// unbounded growth on long ones; the ring keeps the newest events.
const DefaultTraceCapacity = 1 << 16

// Observer bundles one simulation's observability state. The zero/nil
// Observer is fully disabled.
type Observer struct {
	Registry *Registry
	Sampler  *Sampler
	Tracer   *Tracer
	PF       *PFReport
	CPI      *CPIStack
	Spans    *SpanSet
}

// New builds an Observer with a fresh Registry plus whatever cfg enables.
// The Sampler's series definitions are added later by the simulator,
// which knows the metric names it registered.
func New(cfg Config) *Observer {
	o := &Observer{Registry: NewRegistry()}
	if cfg.SampleEvery > 0 {
		o.Sampler = NewSampler(o.Registry, cfg.SampleEvery)
	}
	if cfg.TraceCapacity > 0 {
		o.Tracer = NewTracer(cfg.TraceCapacity)
	}
	if cfg.PFReport {
		o.PF = NewPFReport()
	}
	if cfg.CPIStack {
		every := cfg.CPIEpoch
		if every == 0 {
			every = cfg.SampleEvery // 0 falls through to DefaultCPIEpoch
		}
		o.CPI = NewCPIStack(every)
	}
	if cfg.Spans {
		o.Spans = NewSpanSet(cfg.SpanEvery)
	}
	return o
}
