package harness

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"mtprefetch/internal/workload"
)

func fastConfig() Config {
	subset := true
	return Config{Waves: 1, Subset: &subset}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "table4", "table5", "table6",
		"fig8", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "gstable",
		"thresholds", "mtaml",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, got[i].ID, id)
		}
		if got[i].Title == "" || got[i].PaperRef == "" || got[i].Run == nil {
			t.Errorf("experiment %q incomplete", id)
		}
	}
}

func TestByID(t *testing.T) {
	if ByID("fig10") == nil {
		t.Error("fig10 not found")
	}
	if ByID("nope") != nil {
		t.Error("unknown id found")
	}
}

// footerRE matches the timing part of mtpref's per-experiment footer.
var footerRE = regexp.MustCompile(`completed in [^\]]*\]`)

// referenceSection returns experiment id's section of
// results_reference.txt, the output of `mtpref all`, from its "== id"
// header through the blank line after its footer, with the footer's
// timing normalised.
func referenceSection(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile("../../results_reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "== "+id+" (")
	if start < 0 {
		t.Fatalf("results_reference.txt has no %s section", id)
	}
	end := len(text)
	if i := strings.Index(text[start+1:], "\n== "); i >= 0 {
		end = start + 1 + i + 1
	}
	return footerRE.ReplaceAllString(text[start:end], "completed]")
}

// TestStaticTables renders the experiments that simulate nothing as
// `mtpref run` prints them and diffs each against its section of
// results_reference.txt, so the printed sizes and parameters are the
// simulated ones: Table V and VI read the prefetch package's table-size
// constants and Table II the machine and prefetch constants.
func TestStaticTables(t *testing.T) {
	for _, id := range []string{"table2", "table5", "table6"} {
		e := ByID(id)
		tables, err := e.Run(fastConfig())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "== %s (%s) ==\n", e.ID, e.PaperRef)
		for _, tb := range tables {
			fmt.Fprintln(&b, tb)
		}
		fmt.Fprintf(&b, "[%s completed]\n\n", e.ID)
		if got, want := b.String(), referenceSection(t, id); got != want {
			t.Errorf("%s differs from results_reference.txt:\n--- got\n%s--- want\n%s", id, got, want)
		}
	}
}

func TestTable3RunsAllBenchmarks(t *testing.T) {
	tables, err := ByID("table3").Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() != 14 {
		t.Errorf("table3 rows = %d, want 14", tables[0].NumRows())
	}
	out := tables[0].String()
	for _, b := range []string{"black", "stream", "ocean", "sepia"} {
		if !strings.Contains(out, b) {
			t.Errorf("table3 missing %s", b)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tables, err := ByID("fig10").Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// 14 benchmarks + geomean.
	if tb.NumRows() != 15 {
		t.Errorf("fig10 rows = %d, want 15", tb.NumRows())
	}
	out := tb.String()
	if !strings.Contains(out, "geomean") {
		t.Error("fig10 missing geomean row")
	}
}

func TestGSTableShape(t *testing.T) {
	tables, err := ByID("gstable").Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tables[0].NumRows(), len(workload.ByClass(workload.Stride)); got != want {
		t.Errorf("gstable rows = %d, want %d", got, want)
	}
}

func TestRunnerCaching(t *testing.T) {
	r := newRunner(fastConfig())
	s := workload.ByName("mersenne")
	a, err := r.baseline(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.baseline(s)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("baseline not cached")
	}
}

func TestSweepSuiteSubset(t *testing.T) {
	sub := true
	r := newRunner(Config{Subset: &sub})
	if got := len(r.sweepSuite()); got != len(sensitivitySubset) {
		t.Errorf("subset size = %d, want %d", got, len(sensitivitySubset))
	}
	full := false
	r2 := newRunner(Config{Subset: &full})
	if got := len(r2.sweepSuite()); got != 14 {
		t.Errorf("full sweep size = %d, want 14", got)
	}
	for _, n := range sensitivitySubset {
		if workload.ByName(n) == nil {
			t.Errorf("subset names unknown benchmark %q", n)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.waves() != 2 {
		t.Errorf("default waves = %d, want 2", c.waves())
	}
	if !c.subset() {
		t.Error("default subset should be true")
	}
}

// raceSweepIDs is the scaled-down experiment subset the sweep runs under
// the race detector (where the full registry exceeds the default test
// timeout): the static tables plus the cheapest simulating experiments,
// which together still exercise the parallel runner (baseline, perfect
// memory, hardware-prefetch and pmem futures racing on shared baselines).
var raceSweepIDs = map[string]bool{
	"table2": true, "table4": true, "table5": true,
	"table6": true, "gstable": true,
}

// TestAllExperimentsRun executes every registry entry at the smallest
// scale, verifying each produces non-empty tables without error. This is
// the expensive integration test; skip with -short. Under the race
// detector it runs the raceSweepIDs subset with a multi-worker pool, so
// the parallel runner and sink paths get race coverage on every `make
// check` instead of being skipped wholesale.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	cfg := fastConfig()
	if raceEnabled {
		cfg.Workers = 4
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if raceEnabled && !raceSweepIDs[e.ID] {
				t.Skip("scaled race sweep runs only the raceSweepIDs subset")
			}
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for i, tb := range tables {
				if tb.NumRows() == 0 {
					t.Errorf("table %d empty", i)
				}
				if tb.String() == "" {
					t.Errorf("table %d renders empty", i)
				}
			}
		})
	}
}
