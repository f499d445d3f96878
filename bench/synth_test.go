package main

import (
	"reflect"
	"testing"

	"mtprefetch/internal/core"
)

func TestSynthSameSeedSameText(t *testing.T) {
	a, b := synthSpecs(7), synthSpecs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different kernels on two calls")
	}
	if reflect.DeepEqual(a, synthSpecs(8)) {
		t.Fatal("seeds 7 and 8 generated the same kernels")
	}
}

func TestSynthSpecsParse(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		specs, err := parseSynth(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(specs) != synthKernels {
			t.Fatalf("seed %d: %d kernels, want %d", seed, len(specs), synthKernels)
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestSynthMostlySkipped pins what synth-lowocc is for: at one block per
// core the machine is stalled on most cycles, so without a prefetcher the
// event calendar skips at least half of them.
func TestSynthMostlySkipped(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 32 simulations")
	}
	specs, err := parseSynth(1)
	if err != nil {
		t.Fatal(err)
	}
	var cycles, skipped uint64
	for _, o := range synthOptions(specs) {
		if o.Hardware != nil {
			continue
		}
		sim, err := core.New(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		cycles += res.Cycles
		skipped += sim.SkippedCycles()
	}
	if frac := float64(skipped) / float64(cycles); frac < 0.5 {
		t.Errorf("skipped %.3f of cycles without a prefetcher, want at least 0.5", frac)
	}
}
