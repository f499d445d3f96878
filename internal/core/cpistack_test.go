package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/simerr"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

// This file holds the differential and conservation tests for
// cycle accounting: with -cpistack off, accounting must be invisible
// (Result and epoch JSONL byte-identical); with it on, every core-cycle
// must land in exactly one bucket, with and without cycle skipping.

// cpiConfigs is the configuration matrix the CPI-stack tests sweep:
// every distinct stall shape — baseline, software prefetch, hardware
// prefetch with throttling (MRQ pressure), and perfect memory (no
// fill waits at all).
func cpiConfigs(t *testing.T) []struct {
	name string
	opts Options
} {
	t.Helper()
	return []struct {
		name string
		opts Options
	}{
		{"baseline", Options{Workload: tiny(t, "monte")}},
		{"mtswp", Options{Workload: tiny(t, "mersenne"), Software: swpref.MTSWP}},
		{"mthwp-throttle", Options{Workload: tiny(t, "conv"), Throttle: true,
			Hardware: func() prefetch.Prefetcher {
				return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
			}}},
		{"perfect-memory", Options{Workload: tiny(t, "stream"), PerfectMemory: true}},
	}
}

// TestCPIStackOffIsInvisible is the zero-cost contract: enabling cycle
// accounting must change nothing the simulator reports elsewhere. Each
// configuration runs with Config.CPIStack off and on — under both the
// skipping and the every-cycle loop — and the Result structs and epoch
// JSONL streams must be byte-identical.
func TestCPIStackOffIsInvisible(t *testing.T) {
	for _, tc := range cpiConfigs(t) {
		tc := tc
		for _, noskip := range []bool{false, true} {
			noskip := noskip
			name := tc.name + "/skip"
			if noskip {
				name = tc.name + "/noskip"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				run := func(cpiOn bool) (*Result, []byte) {
					o := tc.opts
					o.NoCycleSkip = noskip
					o.Obs = obs.New(obs.Config{SampleEvery: 512, CPIStack: cpiOn})
					s, err := New(o)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run()
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := o.Obs.Sampler.WriteJSONL(&buf, map[string]string{"bench": res.Benchmark}); err != nil {
						t.Fatal(err)
					}
					return res, buf.Bytes()
				}
				off, offJSON := run(false)
				on, onJSON := run(true)
				if !reflect.DeepEqual(off, on) {
					t.Errorf("results diverge with accounting on\noff: %+v\non:  %+v", off, on)
				}
				if !bytes.Equal(offJSON, onJSON) {
					t.Errorf("epoch samples diverge with accounting on\noff: %s\non:  %s", offJSON, onJSON)
				}
			})
		}
	}
}

// TestCPIStackSkipEquivalence is the exactness contract for bulk span
// attribution: the CPI stack a skipping run produces — per-core bucket
// totals and the final latency-tolerance snapshot — must equal the one
// an every-cycle run produces. The per-epoch bucket deltas travel in the
// trace, which TestSkipEquivalenceMatrix compares.
func TestCPIStackSkipEquivalence(t *testing.T) {
	for _, tc := range cpiConfigs(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(noskip bool) *obs.CPIStack {
				o := tc.opts
				o.NoCycleSkip = noskip
				o.Checks = true
				o.Obs = obs.New(obs.Config{SampleEvery: 512, CPIStack: true})
				s, err := New(o)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				return s.CPIStack()
			}
			skip, full := run(false), run(true)
			if skip.NumCores() != full.NumCores() {
				t.Fatalf("%d cores attached with cycle skipping, %d without", skip.NumCores(), full.NumCores())
			}
			for i := 0; i < full.NumCores(); i++ {
				if skip.Core(i).Buckets != full.Core(i).Buckets {
					t.Errorf("core %d buckets diverge\nskip: %v\nfull: %v",
						i, skip.Core(i).Buckets, full.Core(i).Buckets)
				}
			}
			skipCyc, skipTol := skip.Tolerances()
			fullCyc, fullTol := full.Tolerances()
			if skipCyc != fullCyc || !reflect.DeepEqual(skipTol, fullTol) {
				t.Errorf("final tolerance snapshot diverges with cycle skipping\nskip: %d %+v\nfull: %d %+v",
					skipCyc, skipTol, fullCyc, fullTol)
			}
		})
	}
}

// TestCPIConservationAcrossConfigs arms Checks (so the simulator's own
// conservation sweep runs during and at the end of the run) and then
// cross-foots the final stack: every core must have attributed exactly
// res.Cycles+1 cycles — the run visited cycles 0..res.Cycles inclusive.
func TestCPIConservationAcrossConfigs(t *testing.T) {
	for _, tc := range cpiConfigs(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := tc.opts
			o.Checks = true
			o.CheckEvery = 1000
			o.Obs = obs.New(obs.Config{CPIStack: true})
			s, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			p := s.CPIStack()
			if err := p.CheckConservation(res.Cycles, res.Cycles+1); err != nil {
				t.Errorf("final stack does not balance: %v", err)
			}
			if got := p.Core(0).Cycles(); got != res.Cycles+1 {
				t.Errorf("core 0 attributed %d cycles, want %d", got, res.Cycles+1)
			}
			var issued uint64
			for i := 0; i < p.NumCores(); i++ {
				issued += p.Core(i).Buckets[obs.BucketIssued]
			}
			if issued == 0 {
				t.Error("no issued cycles attributed; accounting not wired to the issue site")
			}
		})
	}
}

// TestCPIConservationDetectsDoubleAttribution tampers with a finished
// run's ledger — one extra cycle in one bucket of one core — and the
// conservation check must fire with a typed invariant error.
func TestCPIConservationDetectsDoubleAttribution(t *testing.T) {
	o := Options{Workload: tiny(t, "monte"), Obs: obs.New(obs.Config{CPIStack: true})}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := s.CPIStack()
	if err := p.CheckConservation(res.Cycles, res.Cycles+1); err != nil {
		t.Fatalf("untampered stack does not balance: %v", err)
	}
	p.Core(0).Buckets[obs.BucketIssued]++
	err = p.CheckConservation(res.Cycles, res.Cycles+1)
	if err == nil {
		t.Fatal("double-attributed cycle not detected")
	}
	var inv *simerr.InvariantError
	if !errors.As(err, &inv) {
		t.Fatalf("conservation failure is %T, want *simerr.InvariantError", err)
	}
	if inv.Component != "cpistack" || !strings.Contains(inv.Detail, "core 0") {
		t.Errorf("invariant error does not identify the offender: %v", inv)
	}
}

// stallInjector suppresses core 0's issue stage for the first n cycles.
// It deliberately does not implement EventSource, so the loop visits
// every cycle.
type stallInjector struct{ n uint64 }

func (i stallInjector) StallCore(cyc uint64, core int) bool { return core == 0 && cyc < i.n }
func (stallInjector) OnResponse(uint64, *memreq.Request) ResponseAction {
	return DeliverResponse
}

// TestCPIStackExternalStall: cycles a fault injector suppresses must
// land in the throttled bucket, exactly one per suppressed cycle, and
// conservation must still hold for every core.
func TestCPIStackExternalStall(t *testing.T) {
	const stalled = 100
	o := Options{Workload: tiny(t, "monte"), Inject: stallInjector{n: stalled},
		Checks: true, Obs: obs.New(obs.Config{CPIStack: true})}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := s.CPIStack()
	if got := p.Core(0).Buckets[obs.BucketThrottled]; got != stalled {
		t.Errorf("core 0 throttled bucket = %d, want %d", got, stalled)
	}
	if got := p.Core(1).Buckets[obs.BucketThrottled]; got != 0 {
		t.Errorf("unstalled core 1 has %d throttled cycles", got)
	}
	if err := p.CheckConservation(res.Cycles, res.Cycles+1); err != nil {
		t.Errorf("stack does not balance under injection: %v", err)
	}
}

// TestCPIConservationTableII sweeps the full Table II suite under the
// paper's combined configuration (MT-HWP GS+IP with throttling) with
// Checks armed: the simulator aborts the run itself if any core's
// cycle ledger fails to balance, mid-run or at exit.
func TestCPIConservationTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep in -short mode")
	}
	suite, err := workload.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range suite {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			o := Options{
				Workload: tiny(t, spec.Name),
				Throttle: true,
				Hardware: func() prefetch.Prefetcher {
					return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
				},
				Checks: true,
				Obs:    obs.New(obs.Config{CPIStack: true}),
			}
			s, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CPIStack().CheckConservation(res.Cycles, res.Cycles+1); err != nil {
				t.Errorf("final stack does not balance: %v", err)
			}
		})
	}
}
