package core

import (
	"bytes"
	"reflect"
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/swpref"
)

// This file holds the differential equivalence tests for event-driven
// cycle skipping: every supported configuration must produce a Result
// and observability streams byte-identical to a run that visits every
// cycle. This is the contract that lets skipping be on by default.

// runStreams executes o with the full observability bundle — epoch
// sampler, event tracer, prefetch attribution, CPI stacks, and request
// spans when spans is set — and returns the Result, every output stream
// keyed by name, and the number of cycles skipping never visited.
// SpanEvery is set low so tiny workloads still sample densely enough to
// exercise every lifecycle site.
func runStreams(t *testing.T, o Options, noskip, spans bool) (*Result, map[string]string, uint64) {
	t.Helper()
	oo := o
	oo.NoCycleSkip = noskip
	oo.Obs = obs.New(obs.Config{SampleEvery: 512, TraceCapacity: 1 << 14,
		PFReport: true, CPIStack: true,
		Spans: spans, SpanEvery: 8})
	s, err := New(oo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]string{}
	var buf bytes.Buffer
	if err := oo.Obs.Sampler.WriteJSONL(&buf, map[string]string{"bench": res.Benchmark}); err != nil {
		t.Fatal(err)
	}
	streams["epoch"] = buf.String()
	buf.Reset()
	if err := s.PFReport().WriteJSONL(&buf, "run"); err != nil {
		t.Fatal(err)
	}
	streams["pfreport"] = buf.String()
	buf.Reset()
	if err := s.CPIStack().WriteJSONL(&buf, "run"); err != nil {
		t.Fatal(err)
	}
	streams["cpistack"] = buf.String()
	buf.Reset()
	tw, err := obs.NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.AddRun(1, "run", oo.Obs.Tracer); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	streams["trace"] = buf.String()
	if spans {
		buf.Reset()
		if err := s.Spans().WriteJSONL(&buf, "run"); err != nil {
			t.Fatal(err)
		}
		streams["spans"] = buf.String()
	}
	return res, streams, s.SkippedCycles()
}

// equivConfig is one named point of the Options space the differential
// tests sweep.
type equivConfig struct {
	name string
	opts Options
}

// equivConfigs spans the Options space: baseline, both software
// transforms, MT-HWP with and without throttling, Stride RPT (also under
// the invariant sweep), GHB, perfect memory, the invariant sweep and
// DRAM scheduling without age promotion — so the streams cover both
// request kinds, the MRQ merge/reject paths, throttle-degree and
// prefetch trace events, and the attribution outcomes these runs reach.
func equivConfigs(t *testing.T) []equivConfig {
	t.Helper()
	mthwp := func() prefetch.Prefetcher {
		return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
	}
	strideRPT := func() prefetch.Prefetcher {
		return prefetch.NewStrideRPT(prefetch.StrideRPTOptions{WarpAware: true})
	}
	noPromote := config.Baseline()
	noPromote.DRAMAgePromote = 0
	return []equivConfig{
		{"baseline", Options{Workload: tiny(t, "monte")}},
		{"mtswp", Options{Workload: tiny(t, "mersenne"), Software: swpref.MTSWP}},
		{"sw-stride", Options{Workload: tiny(t, "stream"), Software: swpref.Stride}},
		{"swp-throttle", Options{Workload: tiny(t, "stream"), Software: swpref.Stride, Throttle: true}},
		{"mthwp", Options{Workload: tiny(t, "conv"), Hardware: mthwp}},
		{"mthwp-throttle", Options{Workload: tiny(t, "conv"), Throttle: true, Hardware: mthwp}},
		{"stride-rpt", Options{Workload: tiny(t, "monte"), Hardware: strideRPT}},
		{"stride-rpt-checks", Options{Workload: tiny(t, "mersenne"),
			Checks: true, CheckEvery: 1000, Hardware: strideRPT}},
		{"ghb", Options{Workload: tiny(t, "mersenne"),
			Hardware: func() prefetch.Prefetcher {
				return prefetch.NewGHB(prefetch.GHBOptions{WarpAware: true})
			}}},
		{"perfect-memory", Options{Workload: tiny(t, "monte"), PerfectMemory: true}},
		{"checks", Options{Workload: tiny(t, "stream"), Checks: true, CheckEvery: 1000}},
		{"no-age-promote", Options{Workload: tiny(t, "stream"), Config: noPromote, Hardware: mthwp}},
	}
}

// TestSkipEquivalenceMatrix runs every configuration with skipping on
// and off, spans included, and requires the Result and all five streams
// (epoch, pfreport, cpistack, trace, spans) to be byte-identical.
func TestSkipEquivalenceMatrix(t *testing.T) {
	for _, tc := range equivConfigs(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			skip, skipStreams, skipped := runStreams(t, tc.opts, false, true)
			full, fullStreams, fullSkipped := runStreams(t, tc.opts, true, true)
			if fullSkipped != 0 {
				t.Fatalf("NoCycleSkip run still skipped %d cycles", fullSkipped)
			}
			if !reflect.DeepEqual(skip, full) {
				t.Errorf("results diverge with cycle skipping\nskip: %+v\nfull: %+v", skip, full)
			}
			for name, ref := range fullStreams {
				if skipStreams[name] != ref {
					t.Errorf("%s stream diverges with cycle skipping", name)
				}
			}
			if skipped == 0 {
				t.Logf("note: no cycles were skippable")
			}
		})
	}
}

// TestSkipActuallySkips guards against the skip machinery silently
// degrading into a no-op: a memory-bound run must skip a substantial
// share of its cycles.
func TestSkipActuallySkips(t *testing.T) {
	skip, _, skipped := runStreams(t, Options{Workload: tiny(t, "stream")}, false, false)
	if skipped == 0 {
		t.Fatal("memory-bound run skipped no cycles")
	}
	if frac := float64(skipped) / float64(skip.Cycles); frac < 0.05 {
		t.Errorf("only %.1f%% of cycles skipped; the event calendar is too conservative", frac*100)
	} else {
		t.Logf("skipped %d of %d cycles (%.1f%%)", skipped, skip.Cycles, frac*100)
	}
}

// opaqueInjector implements FaultInjector but not EventSource.
type opaqueInjector struct{}

func (opaqueInjector) StallCore(uint64, int) bool                        { return false }
func (opaqueInjector) OnResponse(uint64, *memreq.Request) ResponseAction { return DeliverResponse }

// TestOpaqueInjectorDisablesSkip: a fault injector that cannot promise
// skip-awareness forces the loop to visit every cycle.
func TestOpaqueInjectorDisablesSkip(t *testing.T) {
	s, err := New(Options{Workload: tiny(t, "monte"), Inject: opaqueInjector{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.SkippedCycles() != 0 {
		t.Fatalf("opaque injector run skipped %d cycles", s.SkippedCycles())
	}
}

// TestExactTermination: the run ends on the exact cycle the machine
// drains, not the next multiple of a polling granularity — and MaxCycles
// still truncates identically with skipping on or off.
func TestExactTermination(t *testing.T) {
	spec := tiny(t, "monte")
	a := mustRun(t, Options{Workload: spec})
	b := mustRun(t, Options{Workload: spec, NoCycleSkip: true})
	if a.Cycles != b.Cycles {
		t.Fatalf("termination cycle differs: skip %d vs full %d", a.Cycles, b.Cycles)
	}
}
