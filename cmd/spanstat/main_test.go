package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"mtprefetch/internal/harness"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/statcli"
)

var update = flag.Bool("update", false, "rewrite ci/spanstat-gstable.golden from this run")

// TestGSTableGolden renders the GS-table sweep's request-span stream through
// spanstat and diffs it against ci/spanstat-gstable.golden. The sweep is
// `mtpref -waves 1 -spans FILE run gstable` run in-process; after a
// deliberate output change, rerun with -update and review the golden
// diff.
func TestGSTableGolden(t *testing.T) {
	var stream bytes.Buffer
	sink, err := obs.NewSink(nil, nil, nil, nil, &stream, obs.Config{SampleEvery: 10_000})
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
	if err := statcli.Read(&stream, nil, agg.line); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := agg.render(&got, false); err != nil {
		t.Fatal(err)
	}
	const golden = "../../ci/spanstat-gstable.golden"
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
		t.Errorf("spanstat output differs from %s (rerun with -update after a deliberate change):\n--- got ---\n%s--- want ---\n%s",
			golden, got.Bytes(), want)
	}
}
