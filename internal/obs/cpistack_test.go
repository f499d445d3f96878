package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"mtprefetch/internal/simerr"
)

func TestCPIStackNilSafe(t *testing.T) {
	var p *CPIStack
	if c := p.Core(3); c != nil {
		t.Error("nil stack returned a live core")
	}
	if p.NumCores() != 0 {
		t.Error("nil stack reports cores")
	}
	p.CloseEpoch(100, nil, nil)
	if cyc, tol := p.Tolerances(); cyc != 0 || tol != nil {
		t.Error("nil stack has tolerance snapshots")
	}
	if err := p.CheckConservation(0, 42); err != nil {
		t.Error("nil stack fails conservation")
	}
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf, "x"); err != nil || buf.Len() != 0 {
		t.Error("nil stack wrote JSONL")
	}
}

func TestBucketString(t *testing.T) {
	want := map[Bucket]string{
		BucketIssued: "issued", BucketIdle: "idle", BucketScoreboard: "scoreboard",
		BucketMRQFull: "mrq_full", BucketThrottled: "throttled", BucketDrain: "drain",
	}
	if len(want) != int(NumBuckets) {
		t.Fatalf("test covers %d buckets, enum has %d", len(want), NumBuckets)
	}
	for b, s := range want {
		if b.String() != s {
			t.Errorf("Bucket(%d).String() = %q, want %q", b, b, s)
		}
	}
	if !strings.Contains(Bucket(200).String(), "200") {
		t.Errorf("out-of-range bucket renders as %q", Bucket(200))
	}
}

// fill attributes the given per-bucket counts to core id.
func fill(p *CPIStack, id int, counts map[Bucket]uint64) {
	c := p.Core(id)
	for b, v := range counts {
		c.Buckets[b] += v
	}
}

// TestCPIStackEpochDeltas: each epoch close emits, per core and per
// bucket, only the cycles attributed since the previous close, and the
// latest tolerance snapshot tracks the most recent close.
func TestCPIStackEpochDeltas(t *testing.T) {
	tr := NewTracer(128)
	p := NewCPIStack()
	fill(p, 0, map[Bucket]uint64{BucketIssued: 600, BucketScoreboard: 400})
	fill(p, 1, map[Bucket]uint64{BucketIssued: 1000})
	p.CloseEpoch(999, []Tolerance{{Core: 0, ReadyWarps: 3}}, tr)
	fill(p, 0, map[Bucket]uint64{BucketMRQFull: 1000})
	fill(p, 1, map[Bucket]uint64{BucketIssued: 250, BucketDrain: 750})
	p.CloseEpoch(1999, []Tolerance{{Core: 0, ReadyWarps: 1}}, tr)

	got := map[uint64][2][NumBuckets]uint64{}
	for _, e := range tr.Events() {
		if e.Kind != EvCPIBucket {
			t.Fatalf("unexpected event %v", e.Kind)
		}
		d := got[e.Cycle]
		d[e.Track][e.Arg2] = e.Arg
		got[e.Cycle] = d
	}
	want := map[uint64][2][NumBuckets]uint64{
		999: {
			{BucketIssued: 600, BucketScoreboard: 400},
			{BucketIssued: 1000},
		},
		1999: {
			{BucketMRQFull: 1000},
			{BucketIssued: 250, BucketDrain: 750},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-epoch counter deltas = %v, want %v", got, want)
	}
	if n := tr.Count(); n != 2*2*int(NumBuckets) {
		t.Errorf("%d counter events, want one per bucket per core per epoch", n)
	}
	cyc, tol := p.Tolerances()
	if cyc != 1999 || len(tol) != 1 || tol[0].ReadyWarps != 1 {
		t.Errorf("Tolerances() = %d %+v", cyc, tol)
	}
}

func TestCPIStackCloseEpochCopiesTol(t *testing.T) {
	p := NewCPIStack()
	buf := []Tolerance{{Core: 0, ReadyWarps: 7}}
	p.CloseEpoch(100, buf, nil)
	buf[0].ReadyWarps = 99 // simulator reuses its scratch buffer
	_, tol := p.Tolerances()
	if tol[0].ReadyWarps != 7 {
		t.Error("published snapshot aliased the caller's buffer")
	}
	tol[0].ReadyWarps = 5
	if _, again := p.Tolerances(); again[0].ReadyWarps != 7 {
		t.Error("Tolerances() returned an aliased slice")
	}
}

func TestCPIStackConservation(t *testing.T) {
	p := NewCPIStack()
	fill(p, 0, map[Bucket]uint64{BucketIssued: 60, BucketScoreboard: 40})
	fill(p, 1, map[Bucket]uint64{BucketIdle: 100})
	if err := p.CheckConservation(99, 100); err != nil {
		t.Errorf("balanced stack fails: %v", err)
	}
	p.Core(1).Buckets[BucketDrain]++ // double-attributed cycle
	err := p.CheckConservation(99, 100)
	if err == nil {
		t.Fatal("unbalanced stack passes")
	}
	var inv *simerr.InvariantError
	if !errors.As(err, &inv) {
		t.Fatalf("conservation failure is %T, want *simerr.InvariantError", err)
	}
	if inv.Component != "cpistack" || !strings.Contains(inv.Detail, "core 1") {
		t.Errorf("invariant error does not identify the offender: %v", inv)
	}
}

// TestCPIStackWriteJSONL: the stream holds one "cpistack" line per core
// with its lifetime buckets, whatever the epochs published.
func TestCPIStackWriteJSONL(t *testing.T) {
	p := NewCPIStack()
	fill(p, 0, map[Bucket]uint64{BucketIssued: 600, BucketMRQFull: 400})
	fill(p, 1, map[Bucket]uint64{BucketScoreboard: 1000})
	p.CloseEpoch(999, []Tolerance{{Core: 0, ReadyWarps: 2, MRQFree: 6, OldestFillAge: 40}}, nil)

	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf, "runkey"); err != nil {
		t.Fatal(err)
	}
	var got []CPICoreRecord
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec CPICoreRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	want := []CPICoreRecord{
		{Record: "cpistack", Run: "runkey", Core: 0, Cycles: 1000, CPIBuckets: CPIBuckets{Issued: 600, MRQFull: 400}},
		{Record: "cpistack", Run: "runkey", Core: 1, Cycles: 1000, CPIBuckets: CPIBuckets{Scoreboard: 1000}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records = %+v, want %+v", got, want)
	}
}

func TestCPIStackEmitsCounterEvents(t *testing.T) {
	tr := NewTracer(128)
	p := NewCPIStack()
	fill(p, 0, map[Bucket]uint64{BucketIssued: 90, BucketScoreboard: 10})
	p.CloseEpoch(100, nil, tr)
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.AddRun(0, "run", tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cpi issued c0") || !strings.Contains(out, `"ph":"C"`) {
		t.Errorf("trace missing CPI counter track:\n%s", out)
	}
}

func TestObserverConfigCPIStack(t *testing.T) {
	if o := New(Config{}); o.CPI != nil {
		t.Error("CPI stack built without being requested")
	}
	if o := New(Config{CPIStack: true}); o.CPI == nil {
		t.Fatal("CPIStack config did not build a stack")
	}
}

// TestSinkSamplerClocksCPIStack: the sampler is the CPI stack's epoch
// clock, so a sink builds one at the sample period whenever it writes
// metrics or CPI stacks, and none for the other streams.
func TestSinkSamplerClocksCPIStack(t *testing.T) {
	for _, c := range []struct {
		name              string
		metrics, cpiStack bool
	}{
		{"metrics", true, false},
		{"cpistack", false, true},
		{"both", true, true},
		{"neither", false, false},
	} {
		var metrics, cpis, pf bytes.Buffer
		var mw, cw io.Writer
		if c.metrics {
			mw = &metrics
		}
		if c.cpiStack {
			cw = &cpis
		}
		sink, err := NewSink(mw, nil, &pf, cw, nil, Config{SampleEvery: 1000})
		if err != nil {
			t.Fatal(err)
		}
		o := sink.Observer()
		want := c.metrics || c.cpiStack
		if (o.Sampler != nil) != want {
			t.Errorf("%s: sampler built = %v, want %v", c.name, o.Sampler != nil, want)
		}
		if want && o.Sampler.NextTick() != 1000 {
			t.Errorf("%s: first epoch closes at cycle %d, want 1000", c.name, o.Sampler.NextTick())
		}
	}
}
