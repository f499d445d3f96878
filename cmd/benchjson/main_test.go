package main

import "testing"

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkCoreRun/cell/skip-8   \t       3\t   3424559 ns/op\t  61442619 cycles/s\t        47.23 %skipped\t 2878517 B/op\t   33989 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkCoreRun/cell/skip" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", r.Name)
	}
	if r.Runs != 3 || r.NsPerOp != 3424559 {
		t.Errorf("runs/ns = %d/%v", r.Runs, r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 2878517 {
		t.Errorf("B/op = %v", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 33989 {
		t.Errorf("allocs/op = %v", r.AllocsPerOp)
	}
	if r.Metrics["cycles/s"] != 61442619 || r.Metrics["%skipped"] != 47.23 {
		t.Errorf("metrics = %v", r.Metrics)
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  \tmtprefetch\t14.365s",
		"goos: linux",
		"Benchmark name without numbers",
		"", // blank
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parsed non-benchmark line %q", line)
		}
	}
}

func TestParseLineCPIStack(t *testing.T) {
	r, ok := parseLine("BenchmarkCoreRun/cell/skip-8   \t       3\t   3424559 ns/op\t  61442619 cycles/s\t        52.10 cpi%issued\t        31.40 cpi%scoreboard\t         6.50 cpi%mrq_full")
	if !ok {
		t.Fatal("line did not parse")
	}
	if len(r.CPIStack) != 3 {
		t.Fatalf("cpi_stack = %v, want 3 buckets", r.CPIStack)
	}
	if r.CPIStack["issued"] != 52.10 || r.CPIStack["scoreboard"] != 31.40 ||
		r.CPIStack["mrq_full"] != 6.50 {
		t.Errorf("cpi_stack = %v", r.CPIStack)
	}
	if _, ok := r.Metrics["cpi%issued"]; ok {
		t.Error("cpi%issued leaked into the flat metrics map")
	}
	if r.Metrics["cycles/s"] != 61442619 {
		t.Errorf("plain metrics lost: %v", r.Metrics)
	}
}

func TestParseLineSuffixStripping(t *testing.T) {
	// Names may end in a digit of their own (J4); the GOMAXPROCS stripper
	// must remove only the trailing "-8", never the name's own digits.
	r, ok := parseLine("BenchmarkFig17SweepJ4-8 \t       1\t 5424559000 ns/op\t 2878517 B/op\t   33989 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkFig17SweepJ4" {
		t.Errorf("name = %q, want the J4 suffix kept and only -8 stripped", r.Name)
	}

	// A dash-free name (go test run with GOMAXPROCS unreported) must
	// survive untouched even though it ends in a digit.
	r, ok = parseLine("BenchmarkFig16SweepJ1 \t       1\t 3424559000 ns/op")
	if !ok {
		t.Fatal("suffix-free line did not parse")
	}
	if r.Name != "BenchmarkFig16SweepJ1" {
		t.Errorf("name = %q, want it untouched", r.Name)
	}
}

func TestParseLineNoBenchmem(t *testing.T) {
	r, ok := parseLine("BenchmarkCoreSkipSpeedup/cell-8 \t       3\t   8392261 ns/op\t         1.63 speedup")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Error("B/op and allocs/op should be absent")
	}
	if r.Metrics["speedup"] != 1.63 {
		t.Errorf("speedup = %v", r.Metrics["speedup"])
	}
}
