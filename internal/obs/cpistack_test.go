package obs

import (
	"bufio"
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
	if p.NextTick() != ^uint64(0) {
		t.Error("nil stack schedules an epoch tick")
	}
	p.CloseEpoch(100, nil, nil)
	p.Finish(200, nil, nil)
	if p.Epochs() != nil {
		t.Error("nil stack has epochs")
	}
	if p.Totals() != ([NumBuckets]uint64{}) {
		t.Error("nil stack has totals")
	}
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

func TestCPIStackEpochDeltas(t *testing.T) {
	p := NewCPIStack(1000)
	if p.NextTick() != 1000 {
		t.Fatalf("first tick at %d, want 1000", p.NextTick())
	}
	fill(p, 0, map[Bucket]uint64{BucketIssued: 600, BucketScoreboard: 400})
	fill(p, 1, map[Bucket]uint64{BucketIssued: 1000})
	p.CloseEpoch(999, []Tolerance{{Core: 0, ReadyWarps: 3}}, nil)
	if p.NextTick() != 1999 {
		t.Errorf("next tick at %d, want 1999", p.NextTick())
	}
	// Second epoch: only the deltas since the first close may appear.
	fill(p, 0, map[Bucket]uint64{BucketMRQFull: 1000})
	fill(p, 1, map[Bucket]uint64{BucketIssued: 250, BucketDrain: 750})
	p.CloseEpoch(1999, []Tolerance{{Core: 0, ReadyWarps: 1}}, nil)

	es := p.Epochs()
	if len(es) != 2 {
		t.Fatalf("got %d epochs, want 2", len(es))
	}
	want0 := [NumBuckets]uint64{BucketIssued: 1600, BucketScoreboard: 400}
	if es[0].Buckets != want0 {
		t.Errorf("epoch 0 deltas = %v, want %v", es[0].Buckets, want0)
	}
	want1 := [NumBuckets]uint64{BucketIssued: 250, BucketMRQFull: 1000, BucketDrain: 750}
	if es[1].Buckets != want1 {
		t.Errorf("epoch 1 deltas = %v, want %v", es[1].Buckets, want1)
	}
	if es[1].Cycle != 1999 || es[1].Tol[0].ReadyWarps != 1 {
		t.Errorf("epoch 1 snapshot wrong: %+v", es[1])
	}
	// The latest tolerance snapshot tracks the most recent close.
	cyc, tol := p.Tolerances()
	if cyc != 1999 || len(tol) != 1 || tol[0].ReadyWarps != 1 {
		t.Errorf("Tolerances() = %d %+v", cyc, tol)
	}
}

func TestCPIStackCloseEpochCopiesTol(t *testing.T) {
	p := NewCPIStack(100)
	buf := []Tolerance{{Core: 0, ReadyWarps: 7}}
	p.CloseEpoch(100, buf, nil)
	buf[0].ReadyWarps = 99 // simulator reuses its scratch buffer
	if p.Epochs()[0].Tol[0].ReadyWarps != 7 {
		t.Error("CloseEpoch aliased the caller's tolerance buffer")
	}
	_, tol := p.Tolerances()
	if tol[0].ReadyWarps != 7 {
		t.Error("published snapshot aliased the caller's buffer")
	}
	tol[0].ReadyWarps = 5
	if _, again := p.Tolerances(); again[0].ReadyWarps != 7 {
		t.Error("Tolerances() returned an aliased slice")
	}
}

func TestCPIStackFinishClosesPartialEpoch(t *testing.T) {
	p := NewCPIStack(1000)
	fill(p, 0, map[Bucket]uint64{BucketIssued: 500})
	p.Finish(499, nil, nil)
	if len(p.Epochs()) != 1 {
		t.Fatalf("partial epoch not closed: %d epochs", len(p.Epochs()))
	}
	// A second Finish at the same cycle must not duplicate the epoch.
	p.Finish(499, nil, nil)
	if len(p.Epochs()) != 1 {
		t.Error("Finish at the same cycle closed a second epoch")
	}
}

func TestCPIStackConservation(t *testing.T) {
	p := NewCPIStack(0)
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

func TestCPIStackWriteJSONL(t *testing.T) {
	p := NewCPIStack(1000)
	fill(p, 0, map[Bucket]uint64{BucketIssued: 600, BucketMRQFull: 400})
	fill(p, 1, map[Bucket]uint64{BucketScoreboard: 1000})
	p.CloseEpoch(999, []Tolerance{{Core: 0, ReadyWarps: 2, MRQFree: 6, OldestFillAge: 40}}, nil)

	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf, "runkey"); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		kind, _ := rec["record"].(string)
		counts[kind]++
		if rec["run"] != "runkey" {
			t.Errorf("%s line missing run key: %v", kind, rec)
		}
		switch kind {
		case "cpiepoch":
			if rec["issued"] != float64(600) || rec["scoreboard"] != float64(1000) {
				t.Errorf("epoch deltas wrong: %v", rec)
			}
		case "cpitol":
			if rec["ready_warps"] != float64(2) || rec["oldest_fill_age"] != float64(40) {
				t.Errorf("tolerance snapshot wrong: %v", rec)
			}
		case "cpistack":
			if rec["core"] == float64(0) && rec["mrq_full"] != float64(400) {
				t.Errorf("core 0 stack wrong: %v", rec)
			}
		case "cpisummary":
			if rec["cores"] != float64(2) || rec["cycles"] != float64(2000) {
				t.Errorf("summary wrong: %v", rec)
			}
		}
	}
	want := map[string]int{"cpiepoch": 1, "cpitol": 1, "cpistack": 2, "cpisummary": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("record counts = %v, want %v", counts, want)
	}
}

func TestCPIStackEmitsCounterEvents(t *testing.T) {
	tr := NewTracer(128)
	p := NewCPIStack(100)
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
	o := New(Config{CPIStack: true, CPIEpoch: 777})
	if o.CPI == nil {
		t.Fatal("CPIStack config did not build a stack")
	}
	if o.CPI.NextTick() != 777 {
		t.Errorf("configured epoch not honoured: first tick at %d", o.CPI.NextTick())
	}
	// Epoch defaults to the sampler cadence when unset.
	o = New(Config{CPIStack: true, SampleEvery: 512})
	if o.CPI.NextTick() != 512 {
		t.Errorf("epoch did not default to SampleEvery: %d", o.CPI.NextTick())
	}
}

// TestSinkCPIEpochFollowsSampleEvery: the sample period sets the CPI
// epochs whether or not the sink writes metrics; without a metrics
// writer the sink builds no sampler.
func TestSinkCPIEpochFollowsSampleEvery(t *testing.T) {
	for _, withMetrics := range []bool{false, true} {
		var metrics, cpis bytes.Buffer
		var mw io.Writer
		if withMetrics {
			mw = &metrics
		}
		sink, err := NewSink(mw, nil, nil, &cpis, nil, Config{SampleEvery: 1000})
		if err != nil {
			t.Fatal(err)
		}
		o := sink.Observer()
		if (o.Sampler != nil) != withMetrics {
			t.Errorf("metrics %v: sampler built = %v", withMetrics, o.Sampler != nil)
		}
		o.CPI.Core(0)
		o.CPI.CloseEpoch(o.CPI.NextTick(), nil, nil)
		if got := o.CPI.NextTick(); got != 2000 {
			t.Errorf("metrics %v: second CPI epoch closes at cycle %d, want 2000", withMetrics, got)
		}
	}
}
