package harness

import (
	"strings"
	"sync"
	"testing"

	"mtprefetch/internal/workload"
)

// specWith builds a minimal spec for scale-factor tests; only the grid
// fields matter to runner.spec.
func specWith(blocks, maxPerCore int) *workload.Spec {
	return &workload.Spec{
		Name:             "synthetic",
		Blocks:           blocks,
		TotalWarps:       blocks * 2, // 2 warps per block
		MaxBlocksPerCore: maxPerCore,
	}
}

func TestSpecScaleRounding(t *testing.T) {
	// Waves=1, MaxBlocksPerCore=1: the wave target is 14 blocks. The
	// scale factor must round to nearest (min 1), not truncate — a
	// benchmark with Blocks just under a multiple of the target would
	// otherwise run at up to ~2x the intended waves.
	r := newRunner(Config{Waves: 1, Workers: 1})
	cases := []struct {
		blocks     int
		wantFactor int
	}{
		{1, 1},  // far below one wave: unscaled (factor clamps to 1)
		{13, 1}, // just under one wave: unscaled
		{14, 1}, // exactly one wave
		{20, 1}, // rounds down to 1 (20+7)/14
		{21, 2}, // rounds up to 2: previously truncated to 1 (~1.5 waves kept)
		{27, 2}, // just under 2 waves: previously truncated to 1 (~2x work)
		{28, 2}, // exactly two waves
		{34, 2}, // rounds down
		{35, 3}, // rounds up
		{140, 10},
	}
	for _, tc := range cases {
		s := specWith(tc.blocks, 1)
		got := r.spec(s)
		want := s.Scaled(tc.wantFactor)
		if got.Blocks != want.Blocks {
			t.Errorf("Blocks=%d: scaled to %d blocks, want %d (factor %d)",
				tc.blocks, got.Blocks, want.Blocks, tc.wantFactor)
		}
	}
	// The factor scales with waves and occupancy.
	r2 := newRunner(Config{Waves: 2, Workers: 1})
	if got := r2.spec(specWith(27, 1)); got.Blocks != 27 {
		t.Errorf("Waves=2 Blocks=27: scaled to %d blocks, want 27 (one wave target is 28)", got.Blocks)
	}
}

func TestRunnerSingleflight(t *testing.T) {
	// Racing submissions of the same key must collapse onto one
	// execution: every caller sees the same *core.Result pointer.
	r := newRunner(Config{Waves: 1, Workers: 4})
	s := workload.ByName("mersenne")
	const callers = 8
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.baseline(s)
			if err != nil {
				results[i] = err
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got %v, caller 0 got %v — key not collapsed onto one execution",
				i, results[i], results[0])
		}
	}
	if err, ok := results[0].(error); ok {
		t.Fatal(err)
	}
}

func TestParallelDeterminism(t *testing.T) {
	// The determinism guarantee: tables are byte-identical at any worker
	// count, because experiments assemble rows from futures in
	// registration order. table4 covers three runs per benchmark.
	render := func(workers int) string {
		sub := true
		tables, err := ByID("table4").Run(Config{Waves: 1, Subset: &sub, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		for _, tb := range tables {
			b.WriteString(tb.String())
		}
		return b.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("table4 output differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}
}

func TestWorkersDefault(t *testing.T) {
	var c Config
	if c.workers() < 1 {
		t.Errorf("default workers = %d, want >= 1", c.workers())
	}
	c.Workers = 3
	if c.workers() != 3 {
		t.Errorf("workers = %d, want 3", c.workers())
	}
}
