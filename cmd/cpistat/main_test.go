package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"mtprefetch/internal/harness"
	"mtprefetch/internal/obs"
)

// sample JSONL covering two runs of a two-core and a one-core config,
// with the epoch/tolerance/summary records a real -cpistack stream
// interleaves. Values are chosen so the derived shares are easy to
// eyeball: run a totals 2000 cycles with 1000 issued (50.0%), 400
// scoreboard (20.0%), 300 mrq_full (15.0%), 200 idle (10.0%), 100
// drain (5.0%); run b is 100% issued.
const sampleJSONL = `{"record":"cpiepoch","run":"hw/a/stride/true","cycle":512,"issued":100,"idle":0,"scoreboard":28,"mrq_full":0,"throttled":0,"drain":0}
{"record":"cpitol","run":"hw/a/stride/true","cycle":512,"core":0,"ready_warps":3,"active_warps":5,"live_warps":8,"mrq_outstanding":2,"mrq_free":6,"oldest_fill_age":40}
{"record":"cpistack","run":"hw/a/stride/true","core":0,"cycles":1000,"issued":600,"idle":100,"scoreboard":200,"mrq_full":100,"throttled":0,"drain":0}
{"record":"cpistack","run":"hw/a/stride/true","core":1,"cycles":1000,"issued":400,"idle":100,"scoreboard":200,"mrq_full":200,"throttled":0,"drain":100}
{"record":"cpisummary","run":"hw/a/stride/true","cores":2,"cycles":2000,"issued":1000,"idle":200,"scoreboard":400,"mrq_full":300,"throttled":0,"drain":100}
{"record":"cpistack","run":"hw/b/none/false","core":0,"cycles":500,"issued":500,"idle":0,"scoreboard":0,"mrq_full":0,"throttled":0,"drain":0}
{"record":"cpisummary","run":"hw/b/none/false","cores":1,"cycles":500,"issued":500,"idle":0,"scoreboard":0,"mrq_full":0,"throttled":0,"drain":0}
`

func TestAggregateSummaryTable(t *testing.T) {
	agg := newAggregate()
	if err := agg.read(strings.NewReader(sampleJSONL), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agg.writeSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 run(s)") {
		t.Errorf("header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header line, column line, two runs
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	var a, b string
	for _, l := range lines {
		if strings.HasPrefix(l, "hw/a/") {
			a = l
		}
		if strings.HasPrefix(l, "hw/b/") {
			b = l
		}
	}
	if a == "" || b == "" {
		t.Fatalf("missing run rows:\n%s", out)
	}
	// run a: 2 cores, 2000 cycles; issued 50.0, scoreboard 20.0,
	// mrq_full 15.0, idle 10.0, drain 5.0
	for _, want := range []string{" 2 ", "2000", "50.0", "20.0", "15.0", "10.0", "5.0"} {
		if !strings.Contains(a, want) {
			t.Errorf("run a row missing %q: %s", want, a)
		}
	}
	for _, want := range []string{"500", "100.0", "0.0"} {
		if !strings.Contains(b, want) {
			t.Errorf("run b row missing %q: %s", want, b)
		}
	}
}

func TestAggregateRunFilter(t *testing.T) {
	agg := newAggregate()
	re := regexp.MustCompile(`stride`)
	if err := agg.read(strings.NewReader(sampleJSONL), re); err != nil {
		t.Fatal(err)
	}
	if len(agg.runs) != 1 {
		t.Fatalf("filter kept %d runs, want 1", len(agg.runs))
	}
	if _, ok := agg.runs["hw/b/none/false"]; ok {
		t.Error("filtered-out run still aggregated")
	}
}

func TestAggregateByCoreTable(t *testing.T) {
	agg := newAggregate()
	if err := agg.read(strings.NewReader(sampleJSONL), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agg.writeByCore(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hw/a/stride/true", "hw/b/none/false",
		"scoreboard", "mrq_full", "600", "400"} {
		if !strings.Contains(out, want) {
			t.Errorf("per-core table missing %q:\n%s", want, out)
		}
	}
}

func TestAggregateMergesAcrossStreams(t *testing.T) {
	agg := newAggregate()
	if err := agg.read(strings.NewReader(sampleJSONL), nil); err != nil {
		t.Fatal(err)
	}
	if err := agg.read(strings.NewReader(sampleJSONL), nil); err != nil {
		t.Fatal(err)
	}
	ra := agg.runs["hw/a/stride/true"]
	if ra == nil || sum(ra.totals) != 4000 {
		t.Fatalf("cross-stream merge: run a total = %v, want 4000", ra)
	}
	if len(ra.cores) != 2 {
		t.Fatalf("run a cores = %d, want 2", len(ra.cores))
	}
}

func TestAggregateEmpty(t *testing.T) {
	agg := newAggregate()
	// Non-cpistack records only: the aggregate must report empty so main
	// can exit nonzero instead of printing a zero-row table.
	in := `{"record":"cpiepoch","run":"x","cycle":1}` + "\n" +
		`{"record":"pfreport","run":"x","source":"stride-rpt"}` + "\n"
	if err := agg.read(strings.NewReader(in), nil); err != nil {
		t.Fatal(err)
	}
	if !agg.empty() {
		t.Error("aggregate with no cpistack records not reported empty")
	}
	full := newAggregate()
	if err := full.read(strings.NewReader(sampleJSONL), nil); err != nil {
		t.Fatal(err)
	}
	if full.empty() {
		t.Error("aggregate with cpistack records reported empty")
	}
}

func TestAggregateRejectsGarbage(t *testing.T) {
	agg := newAggregate()
	if err := agg.read(strings.NewReader("not json\n"), nil); err == nil {
		t.Fatal("garbage line accepted")
	}
}

// TestAggregateLongLines is the regression test for the bufio.Scanner
// "token too long" failure: a record padded past the old 1 MiB scanner
// cap (here via a long run name) must parse, not error out.
func TestAggregateLongLines(t *testing.T) {
	longRun := strings.Repeat("r", 2<<20)
	input := strings.Replace(sampleJSONL, `"run":"hw/a/stride/true"`, `"run":"`+longRun+`"`, -1)
	agg := newAggregate()
	if err := agg.read(strings.NewReader(input), nil); err != nil {
		t.Fatalf("read with >1MiB lines: %v", err)
	}
	if agg.runs[longRun] == nil {
		t.Error("long-named run not aggregated")
	}
}

// TestAggregateRejectsNegativeCore is the regression test for the
// index-out-of-range panic a negative core id used to cause: malformed
// input is an error, never a crash.
func TestAggregateRejectsNegativeCore(t *testing.T) {
	agg := newAggregate()
	in := `{"record":"cpistack","run":"x","core":-1,"cycles":1,"issued":1}` + "\n"
	if err := agg.read(strings.NewReader(in), nil); err == nil {
		t.Fatal("negative core accepted")
	}
}

// TestAggregateSparseCoreIDs is the regression test for per-core rows
// sized by the largest core id: one record with a huge id grew a dense
// slice to that many rows. Memory must follow the records read.
func TestAggregateSparseCoreIDs(t *testing.T) {
	in := fmt.Sprintf(`{"record":"cpistack","run":"x","core":%d,"cycles":1,"issued":1}`+"\n", 1<<20)
	agg := newAggregate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := agg.read(strings.NewReader(in), nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("one record with core %d allocated %d bytes, want < 1 MiB", 1<<20, n)
	}
	if ra := agg.runs["x"]; ra == nil || len(ra.cores) != 1 {
		t.Error("run x not aggregated into exactly one core row")
	}
}

var update = flag.Bool("update", false, "rewrite ci/cpistat-gstable.golden from this run")

// TestGSTableGolden renders the GS-table sweep's CPI-stack stream through
// cpistat and diffs it against ci/cpistat-gstable.golden. The sweep is
// `mtpref -waves 1 -cpistack FILE run gstable` run in-process; after a
// deliberate output change, rerun with -update and review the golden
// diff.
func TestGSTableGolden(t *testing.T) {
	var stream bytes.Buffer
	sink, err := obs.NewSink(nil, nil, nil, &stream, nil, obs.Config{SampleEvery: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := harness.ByID("gstable").Run(harness.Config{Waves: 1, Obs: sink}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	agg := newAggregate()
	if err := agg.read(&stream, nil); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := agg.render(&got, false); err != nil {
		t.Fatal(err)
	}
	const golden = "../../ci/cpistat-gstable.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("cpistat output differs from %s (rerun with -update after a deliberate change):\n--- got ---\n%s--- want ---\n%s",
			golden, got.Bytes(), want)
	}
}
