package core

import (
	"errors"
	"math/rand"
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/kernel"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/workload"
)

// randomProgram builds a random but valid kernel from a seeded source.
func randomProgram(rng *rand.Rand) *kernel.Program {
	b := kernel.NewBuilder("fuzz")
	loop := rng.Intn(2) == 0
	if loop {
		b.BeginLoop(1 + rng.Intn(6))
	}
	nloads := 1 + rng.Intn(3)
	var last kernel.Reg
	for i := 0; i < nloads; i++ {
		acc := kernel.Access{
			Array:       rng.Intn(3),
			LaneStrideB: []uint64{0, 4, 4, 16, 64}[rng.Intn(5)],
			IterStrideB: uint64(rng.Intn(4)) * 128,
			Hash:        rng.Intn(8) == 0,
			Span:        1 << 22,
		}
		last = b.Load(acc)
		last = b.Compute(rng.Intn(6), last)
	}
	if rng.Intn(2) == 0 {
		last = b.IMul(last)
	}
	if rng.Intn(4) == 0 {
		last = b.FDiv(last)
	}
	if rng.Intn(2) == 0 {
		b.Store(kernel.Access{Array: 3, LaneStrideB: 4}, last)
	}
	if loop {
		b.EndLoop()
	}
	return b.MustBuild()
}

func randomSpec(rng *rand.Rand) *workload.Spec {
	wpb := []int{1, 2, 4, 8}[rng.Intn(4)]
	blocks := 14 * (1 + rng.Intn(4))
	return &workload.Spec{
		Name: "fuzz", Suite: "fuzz", Class: workload.MP,
		TotalWarps: wpb * blocks, Blocks: blocks,
		MaxBlocksPerCore: 1 + rng.Intn(3),
		RegsPerThread:    16,
		Program:          randomProgram(rng),
	}
}

// TestRandomKernelsTerminateAndConserve runs randomly generated kernels
// through every prefetching mode and checks conservation invariants: the
// run terminates, all warps complete, every issued instruction is
// accounted, and the memory system drains.
func TestRandomKernelsTerminateAndConserve(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz-style test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	cfg := config.Baseline()
	cfg.ThrottlePeriod = 5000
	for i := 0; i < 12; i++ {
		spec := randomSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid spec: %v", i, err)
		}
		modes := []Options{
			{Config: cfg, Workload: spec},
			{Config: cfg, Workload: spec, Software: swpref.MTSWP},
			{Config: cfg, Workload: spec, Software: swpref.Register},
			{Config: cfg, Workload: spec, Throttle: true, Hardware: func() prefetch.Prefetcher {
				return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
			}},
			{Config: cfg, Workload: spec, Hardware: func() prefetch.Prefetcher {
				return prefetch.NewGHB(prefetch.GHBOptions{WarpAware: true, Feedback: true})
			}},
		}
		for m, o := range modes {
			o.MaxCycles = 50_000_000
			r, err := Run(o)
			if err != nil {
				t.Fatalf("kernel %d mode %d: %v", i, m, err)
			}
			// Instruction conservation: warps x dynamic length.
			spec2, _, _ := swpref.Apply(spec, o.Software, swpref.Options{})
			want := uint64(spec2.TotalWarps) * uint64(spec2.Program.DynamicCounts().Total)
			if r.AllInstructions != want {
				t.Errorf("kernel %d mode %d: instructions %d, want %d",
					i, m, r.AllInstructions, want)
			}
			if r.CPI < 3.99 {
				t.Errorf("kernel %d mode %d: CPI %.2f below issue floor", i, m, r.CPI)
			}
			if r.Accuracy > 1 || r.Coverage > 1 {
				t.Errorf("kernel %d mode %d: ratios out of range: %+v", i, m, r)
			}
		}
	}
}

// TestScaleStability checks that the qualitative result (who wins) is
// stable across grid scales — the property the scaled-down harness relies
// on.
func TestScaleStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale run skipped in -short mode")
	}
	s := workload.ByName("mersenne")
	for _, waves := range []int{1, 2, 4} {
		spec := s.Scaled(s.Blocks / (14 * s.MaxBlocksPerCore * waves))
		base, err := Run(Options{Workload: spec})
		if err != nil {
			t.Fatal(err)
		}
		hw, err := Run(Options{Workload: spec, Hardware: func() prefetch.Prefetcher {
			return prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
		}})
		if err != nil {
			t.Fatal(err)
		}
		if sp := hw.Speedup(base); sp < 1.2 {
			t.Errorf("waves=%d: mersenne MT-HWP speedup %.3f, want > 1.2 at every scale", waves, sp)
		}
	}
}

// TestDemandFillConservation uses a deterministic benchmark to assert
// every demand transaction is eventually either served by the prefetch
// cache or filled from memory — nothing is lost or double-filled.
func TestDemandFillConservation(t *testing.T) {
	spec := workload.ByName("monte").Scaled(64)
	for _, sw := range []swpref.Mode{swpref.None, swpref.MTSWP} {
		r, err := Run(Options{Workload: spec, Software: sw})
		if err != nil {
			t.Fatal(err)
		}
		// Demand transactions split into cache hits and MRQ entries;
		// MRQ entries merge or go to memory. All must be covered:
		// hits + (demand latency samples >= demand entries).
		if r.PFCacheHits > r.DemandTransactions {
			t.Errorf("%v: hits exceed demands", sw)
		}
		missed := r.DemandTransactions - r.PFCacheHits
		if missed == 0 && r.AvgDemandLatency > 0 {
			t.Errorf("%v: latency recorded with zero misses", sw)
		}
		if missed > 0 && r.AvgDemandLatency == 0 {
			t.Errorf("%v: %d misses but no latency recorded", sw, missed)
		}
	}
}

// calendarCorruptor is a fault injector that damages the simulator's wake
// calendar at one cycle, after the cores have stepped and before that
// cycle's invariant sweep.
type calendarCorruptor struct {
	opaqueInjector
	s       *Simulator
	at      uint64
	corrupt func(*Simulator)
}

func (c *calendarCorruptor) RunFault(cycle uint64) error {
	if cycle == c.at {
		c.corrupt(c.s)
	}
	return nil
}

// TestWakeCalendarInvariant: the invariant sweep reports a wake entry
// that disagrees with its core's next event (a missed wake site), and a
// send flag that disagrees with its MRQ, as typed core invariant errors.
func TestWakeCalendarInvariant(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*Simulator)
	}{
		{"wake-calendar", func(s *Simulator) { s.wake[3] = s.cycle + 7777 }},
		{"send-flag", func(s *Simulator) { s.sending[5] = !s.sending[5] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := &calendarCorruptor{at: 2000, corrupt: tc.corrupt}
			s, err := New(Options{Workload: tiny(t, "stream"), Checks: true, CheckEvery: 1000, Inject: inj})
			if err != nil {
				t.Fatal(err)
			}
			inj.s = s
			_, err = s.Run()
			var ie *InvariantError
			if !errors.As(err, &ie) || ie.Component != "core" || ie.Name != tc.name || ie.Cycle != 2000 {
				t.Fatalf("Run error = %v, want a core %s invariant error at cycle 2000", err, tc.name)
			}
		})
	}
}
