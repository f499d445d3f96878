package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"mtprefetch/bench/record"
	"mtprefetch/internal/core"
	"mtprefetch/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden/suite-base.json from the current simulator")

// TestSuiteBaseGolden pins golden/suite-base.json to the simulator;
// -update rewrites it after an intended change to simulated results.
func TestSuiteBaseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 14 Table III benchmarks")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*core.Result{}
	for _, o := range baseOptions(workload.MemoryIntensive(), suiteWaves) {
		res, err := core.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		out[res.Benchmark] = res
		if !*update && !g.matches(res) {
			t.Errorf("%s: Result differs from golden/suite-base.json", res.Benchmark)
		}
	}
	if !*update {
		return
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden/suite-base.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedReferenceFails proves the correctness checks bite: a
// corrupted reference section and a corrupted golden entry each count as
// failures, and any failure makes the benchmark's result incorrect, which
// exits non-zero.
func TestCorruptedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceSections(root)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := map[string]string{}
	for k, v := range ref {
		corrupted[k] = v
	}
	corrupted["table3"] = strings.Replace(ref["table3"], "black", "blank", 1)
	for _, tc := range []struct {
		name   string
		ref    map[string]string
		failed int
	}{{"reference", ref, 0}, {"corrupted", corrupted, 1}} {
		b := &bench{workload: "paper-sweep", log: io.Discard, best: map[string]map[string]float64{}}
		if _, err := b.sweep([]string{"table2", "table3"}, harnessConfig(), tc.ref, nil, "wall_s"); err != nil {
			t.Fatal(err)
		}
		if b.res.Attempted != 2 || b.res.Failed != tc.failed {
			t.Errorf("%s: attempted %d, failed %d; want 2 and %d", tc.name, b.res.Attempted, b.res.Failed, tc.failed)
		}
	}

	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(baseOptions([]*workload.Spec{workload.ByName("pns")}, suiteWaves)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !g.matches(res) {
		t.Fatal("pns does not match its golden entry")
	}
	g["pns"] = json.RawMessage(strings.Replace(string(g["pns"]), `"Cycles": `, `"Cycles": 1`, 1))
	if g.matches(res) {
		t.Error("pns still matches a corrupted golden entry")
	}

	if out := summary([]*record.Run{{Attempted: 3, Failed: 1}}, false); out.Correct {
		t.Error("a run with a failed check is reported correct")
	}
}
