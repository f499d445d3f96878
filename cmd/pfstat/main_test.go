package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"mtprefetch/internal/harness"
	"mtprefetch/internal/obs"
)

// sample JSONL covering two runs: a stride-RPT hardware run and an
// MT-HWP IP-table run, with a pfsummary trailer each. Values are chosen
// so the derived columns are easy to eyeball: stride-rpt accuracy
// (used/issued) = (6+2)/10 = 0.800, merge ratio 2/10 = 0.200, early rate
// 2/8 = 0.250; hw-ip accuracy = 3/4 = 0.750.
const sampleJSONL = `{"record":"pfreport","run":"hw/a/stride/true","source":"stride-rpt","pc":4,"generated":12,"dropped_throttle":1,"dropped_filter":0,"dropped_in_cache":1,"dropped_queue_full":0,"merged_mrq":0,"issued":10,"late":2,"redundant":0,"useful":6,"early_evicted":2,"unused_at_drain":0,"hits":9,"demand_merges":2,"degree_sum":20}
{"record":"pfsummary","run":"hw/a/stride/true","demand_transactions":100,"generated":12,"issued":10,"useful":6,"late":2,"early_evicted":2,"hits":9}
{"record":"pfreport","run":"hw/b/pws+ip/true","source":"hw-ip","pc":7,"generated":5,"dropped_throttle":0,"dropped_filter":0,"dropped_in_cache":1,"dropped_queue_full":0,"merged_mrq":0,"issued":4,"late":1,"redundant":0,"useful":2,"early_evicted":1,"unused_at_drain":0,"hits":3,"demand_merges":1,"degree_sum":4}
{"record":"pfsummary","run":"hw/b/pws+ip/true","demand_transactions":50,"generated":5,"issued":4,"useful":2,"late":1,"early_evicted":1,"hits":3}
{"record":"epoch","run":"hw/b/pws+ip/true","cycle":512}
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
	if !strings.Contains(out, "2 run(s), 150 demand transactions") {
		t.Errorf("header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header line, column line, two sources
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	var stride, ip string
	for _, l := range lines {
		if strings.HasPrefix(l, "stride-rpt") {
			stride = l
		}
		if strings.HasPrefix(l, "hw-ip") {
			ip = l
		}
	}
	if stride == "" || ip == "" {
		t.Fatalf("missing source rows:\n%s", out)
	}
	// accuracy (6+2)/10, merge ratio 2/10, early rate 2/(6+2)
	for _, want := range []string{"0.800", "0.200", "0.250"} {
		if !strings.Contains(stride, want) {
			t.Errorf("stride-rpt row missing %s: %s", want, stride)
		}
	}
	if !strings.Contains(ip, "0.750") { // accuracy 3/4
		t.Errorf("hw-ip row missing accuracy 0.750: %s", ip)
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
	if _, ok := agg.perSrc["hw-ip"]; ok {
		t.Error("filtered-out run's source still aggregated")
	}
	if agg.demand != 100 {
		t.Errorf("demand = %d, want 100", agg.demand)
	}
}

func TestAggregatePerPCRebuild(t *testing.T) {
	agg := newAggregate()
	if err := agg.read(strings.NewReader(sampleJSONL), nil); err != nil {
		t.Fatal(err)
	}
	// The rebuilt report must satisfy the same conservation identities
	// the simulator enforces, and render the per-PC table.
	if err := agg.rep.CheckConservation(0); err != nil {
		t.Fatalf("rebuilt ledger does not balance: %v", err)
	}
	var buf bytes.Buffer
	if err := agg.rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stride-rpt", "hw-ip", "accuracy"} {
		if !strings.Contains(out, want) {
			t.Errorf("per-PC table missing %q:\n%s", want, out)
		}
	}
}

func TestAggregateMergesAcrossRuns(t *testing.T) {
	two := strings.ReplaceAll(sampleJSONL, "hw/b/", "hw/c/")
	agg := newAggregate()
	if err := agg.read(strings.NewReader(sampleJSONL), nil); err != nil {
		t.Fatal(err)
	}
	if err := agg.read(strings.NewReader(two), nil); err != nil {
		t.Fatal(err)
	}
	c := agg.perSrc["stride-rpt"]
	if c == nil || c.Issued != 20 {
		t.Fatalf("cross-run merge: stride-rpt issued = %v, want 20", c)
	}
	if agg.demand != 300 {
		t.Errorf("demand = %d, want 300", agg.demand)
	}
}

func TestAggregateEmpty(t *testing.T) {
	agg := newAggregate()
	// Records of other kinds only: the aggregate must report empty so
	// main can exit nonzero instead of printing a zero-row table.
	in := `{"record":"epoch","run":"x","cycle":1}` + "\n"
	if err := agg.read(strings.NewReader(in), nil); err != nil {
		t.Fatal(err)
	}
	if !agg.empty() {
		t.Error("aggregate with no attribution records not reported empty")
	}
	full := newAggregate()
	if err := full.read(strings.NewReader(sampleJSONL), nil); err != nil {
		t.Fatal(err)
	}
	if full.empty() {
		t.Error("aggregate with attribution records reported empty")
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
	if !agg.runs[longRun] {
		t.Error("long-named run not aggregated")
	}
}

var update = flag.Bool("update", false, "rewrite ci/pfstat-gstable.golden from this run")

// TestGSTableGolden renders the GS-table sweep's prefetch attribution stream through
// pfstat -bypc and diffs it against ci/pfstat-gstable.golden. The sweep is
// `mtpref -waves 1 -pfreport FILE run gstable` run in-process; after a
// deliberate output change, rerun with -update and review the golden
// diff.
func TestGSTableGolden(t *testing.T) {
	var stream bytes.Buffer
	sink, err := obs.NewSink(nil, nil, &stream, nil, nil, obs.Config{SampleEvery: 10_000})
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
	if err := agg.render(&got, true); err != nil {
		t.Fatal(err)
	}
	const golden = "../../ci/pfstat-gstable.golden"
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
		t.Errorf("pfstat -bypc output differs from %s (rerun with -update after a deliberate change):\n--- got ---\n%s--- want ---\n%s",
			golden, got.Bytes(), want)
	}
}
