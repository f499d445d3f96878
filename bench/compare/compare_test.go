package main

import (
	"io"
	"testing"

	"mtprefetch/bench/record"
)

// runs builds one record per value of a single metric.
func runs(def record.Metric, seeds []uint64, values ...float64) []*record.Run {
	var out []*record.Run
	for i, v := range values {
		m := def
		m.Value = v
		seed := uint64(i + 1)
		if seeds != nil {
			seed = seeds[i]
		}
		out = append(out, &record.Run{Workload: "w", Seed: seed, Metrics: map[string]record.Metric{"m": m}})
	}
	return out
}

func TestVerdicts(t *testing.T) {
	wall := record.Metric{Unit: "s", Better: "lower", Bound: 0.10}
	rate := record.Metric{Unit: "1/s", Better: "higher", Bound: 0.10}
	count := record.Metric{Unit: "count", Better: "lower", Exact: true}
	base := []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		def  record.Metric
		a, b []float64
		want string
	}{
		{"identical", wall, base, base, "same"},
		{"within bound", wall, base, scale(base, 1.05), "same"},
		{"slower beyond bound", wall, base, scale(base, 1.2), "worse"},
		{"lower rate beyond bound", rate, base, scale(base, 0.8), "worse"},
		{"higher rate", rate, base, scale(base, 1.05), "better"},
		{"faster", wall, base, scale(base, 0.95), "better"},
		{"noisy", wall, []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}, base, "unresolved"},
		{"drift shared by each pair", wall,
			[]float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}, []float64{8.1, 11.9, 9.1, 11, 10.1, 7, 12.9, 10, 9.1, 11}, "same"},
		{"noisy but dominated", wall,
			[]float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}, []float64{5, 6, 5.5, 6.5, 5.2, 6.1, 5.9, 6.4, 5.1, 6.9}, "better"},
		{"counts equal", count, []float64{5, 6}, []float64{5, 6}, "same"},
		{"counts differ", count, []float64{5, 6}, []float64{5, 7}, "differs"},
	} {
		rows := compare(runs(tc.def, nil, tc.a...), runs(tc.def, nil, tc.b...))
		if len(rows) != 1 || rows[0].verdict != tc.want {
			t.Errorf("%s: got %+v, want verdict %s", tc.name, rows, tc.want)
		}
		wantOK := tc.want == "same" || tc.want == "better"
		if ok := report(io.Discard, rows); ok != wantOK {
			t.Errorf("%s: report ok = %v, want %v", tc.name, ok, wantOK)
		}
	}
}

func TestWinsCountPairsInOrder(t *testing.T) {
	wall := record.Metric{Unit: "s", Better: "lower", Bound: 0.10}
	rows := compare(runs(wall, nil, 10, 10, 10, 10), runs(wall, nil, 9, 11, 9, 10))
	if rows[0].wins != 2 || rows[0].pairs != 4 {
		t.Errorf("wins %d of %d pairs, want 2 of 4 (ties count for neither side)", rows[0].wins, rows[0].pairs)
	}
}

func TestCountsOfDifferentSeedsAreNotCompared(t *testing.T) {
	count := record.Metric{Unit: "count", Better: "lower", Exact: true}
	rows := compare(runs(count, []uint64{1, 2}, 5, 6), runs(count, []uint64{3, 4}, 7, 8))
	if rows[0].verdict != "same" {
		t.Errorf("verdict %s for counts of different seeds, want same", rows[0].verdict)
	}
}
