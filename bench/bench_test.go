package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mtprefetch/bench/record"
	"mtprefetch/internal/workload"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// benchmark reports from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloadOrder))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadOrder[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark reports %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	for i, s := range workload.MemoryIntensive() {
		if benchNames[i] != s.Name {
			t.Errorf("benchNames[%d] = %q, Table III has %q", i, benchNames[i], s.Name)
		}
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload, timed and traced, on a few benchmarks
// for one pass, and checks that the run is correct and reports every
// metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	start := time.Now()
	for _, w := range workloadOrder {
		timed, err := measure(w, 1, 0, "", true)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		traced, err := measure(w, 1, 0, filepath.Join(t.TempDir(), w+".pprof"), true)
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		run := &record.Run{Workload: w}
		if err := assemble(run, timed, traced); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !run.Correct || run.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, run.Correct, run.Attempted, run.Failed)
		}
		for _, m := range bj.EndToEnd {
			got, ok := run.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w, m.Name, got, m.Unit)
			}
		}
		for _, m := range bj.PerLayer {
			if got, ok := run.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v, want unit %s", w, m.Name, got, m.Unit)
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke run took %v, want under 15s", d)
	}
}
