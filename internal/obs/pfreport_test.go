package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/simerr"
)

func provOf(src memreq.Source, pc int32) memreq.Provenance {
	return memreq.Provenance{Source: src, TrainPC: pc, Warp: 3, Degree: 2}
}

// issueOne drives one candidate through a balanced generate->issue->fate
// sequence.
func issueOne(p *PFReport, src memreq.Source, pc int32, fate memreq.Outcome) {
	prov := provOf(src, pc)
	p.Generated(prov)
	p.Issued(prov)
	p.Record(prov, fate)
}

func TestPFReportConservationBalanced(t *testing.T) {
	p := NewPFReport()
	issueOne(p, memreq.SrcPWS, 4, memreq.OutUseful)
	issueOne(p, memreq.SrcPWS, 4, memreq.OutEarlyEvicted)
	issueOne(p, memreq.SrcGHB, 9, memreq.OutLate)
	// A dropped candidate: generated, then one pre-issue fate.
	prov := provOf(memreq.SrcStream, 1)
	p.Generated(prov)
	p.Record(prov, memreq.OutDroppedThrottle)
	if err := p.CheckConservation(100); err != nil {
		t.Fatalf("balanced ledger flagged: %v", err)
	}
}

// TestPFReportConservationCatchesDoubleClassify deliberately classifies
// one prefetch twice and proves the invariant fires — the check must not
// silently tolerate a broken ledger.
func TestPFReportConservationCatchesDoubleClassify(t *testing.T) {
	p := NewPFReport()
	prov := provOf(memreq.SrcPWS, 4)
	p.Generated(prov)
	p.Issued(prov)
	p.Record(prov, memreq.OutUseful)
	p.Record(prov, memreq.OutEarlyEvicted) // the bug: a second terminal
	err := p.CheckConservation(42)
	if err == nil {
		t.Fatal("double-classified prefetch not flagged")
	}
	ie, ok := err.(*simerr.InvariantError)
	if !ok {
		t.Fatalf("error type = %T, want *simerr.InvariantError", err)
	}
	if ie.Name != "outcome-conservation" || ie.Cycle != 42 {
		t.Errorf("got invariant %q at cycle %d, want outcome-conservation at 42", ie.Name, ie.Cycle)
	}
}

// TestPFReportConservationCatchesLostCandidate: a generated candidate
// with no fate at all breaks the generation identity.
func TestPFReportConservationCatchesLostCandidate(t *testing.T) {
	p := NewPFReport()
	p.Generated(provOf(memreq.SrcGS, 7)) // never dropped, never issued
	err := p.CheckConservation(7)
	if err == nil {
		t.Fatal("lost candidate not flagged")
	}
	if ie := err.(*simerr.InvariantError); ie.Name != "generation-conservation" {
		t.Errorf("invariant = %q, want generation-conservation", ie.Name)
	}
}

func TestPFReportNilSafe(t *testing.T) {
	var p *PFReport
	prov := provOf(memreq.SrcPWS, 0)
	p.Generated(prov)
	p.Issued(prov)
	p.Record(prov, memreq.OutUseful)
	p.Hit(prov)
	p.DemandMerge(prov)
	p.SetDemandTransactions(5)
	p.AddDemandTransactions(5)
	p.Add(PFKey{}, PFCounts{Generated: 1})
	if err := p.CheckConservation(0); err != nil {
		t.Errorf("nil report conservation = %v", err)
	}
	if got := p.DemandTransactions(); got != 0 {
		t.Errorf("nil DemandTransactions = %d", got)
	}
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf, "x"); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL wrote %q, err %v", buf.String(), err)
	}
	if err := p.WriteTable(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteTable wrote %q, err %v", buf.String(), err)
	}
}

func TestPFReportJSONL(t *testing.T) {
	p := NewPFReport()
	issueOne(p, memreq.SrcStridePC, 12, memreq.OutUseful)
	issueOne(p, memreq.SrcPWS, 3, memreq.OutLate)
	p.Hit(provOf(memreq.SrcStridePC, 12))
	p.SetDemandTransactions(50)

	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf, "run1"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 2 buckets + 1 summary:\n%s", len(lines), buf.String())
	}
	var first struct {
		Record, Run, Source string
		PC                  int32
		Issued, Useful      uint64
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	// Buckets are sorted by (source, PC); pws < stride-pc in enum order.
	if first.Record != "pfreport" || first.Run != "run1" || first.Source != "pws" || first.PC != 3 {
		t.Errorf("first line = %+v, want pws/3 bucket", first)
	}
	var sum struct {
		Record             string
		DemandTransactions uint64 `json:"demand_transactions"`
		Issued, Hits       uint64
	}
	if err := json.Unmarshal([]byte(lines[2]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Record != "pfsummary" || sum.DemandTransactions != 50 || sum.Issued != 2 || sum.Hits != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestPFReportTable(t *testing.T) {
	p := NewPFReport()
	issueOne(p, memreq.SrcGHB, 5, memreq.OutUseful)
	p.Hit(provOf(memreq.SrcGHB, 5))
	p.SetDemandTransactions(10)
	var buf bytes.Buffer
	if err := p.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"source", "accuracy", "ghb", "1.000", "0.100"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestPFReportAddRebuild(t *testing.T) {
	p := NewPFReport()
	k := PFKey{Source: memreq.SrcStrideRPT, PC: 8}
	p.Add(k, PFCounts{Generated: 3, Issued: 2, Useful: 1, EarlyEvicted: 1, DroppedThrottle: 1})
	p.Add(k, PFCounts{Generated: 2, Issued: 2, Useful: 2, Hits: 4})
	p.AddDemandTransactions(20)
	p.AddDemandTransactions(5)
	if err := p.CheckConservation(0); err != nil {
		t.Fatalf("merged ledger flagged: %v", err)
	}
	if got := p.DemandTransactions(); got != 25 {
		t.Errorf("DemandTransactions = %d, want 25", got)
	}
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"generated":5`) {
		t.Errorf("merged bucket not summed:\n%s", buf.String())
	}
}

func TestParseSourceRoundTrip(t *testing.T) {
	for s := memreq.SrcNone; s < memreq.NumSources; s++ {
		got, ok := memreq.ParseSource(s.String())
		if !ok || got != s {
			t.Errorf("ParseSource(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := memreq.ParseSource("not-a-source"); ok {
		t.Error("unknown source parsed")
	}
}

// TestRegistrySnapshotConcurrentRegistration races registration against
// Snapshot/Sum/Names readers; run under -race this proves the index
// mutex actually guards the instrument table (the harness debug server
// snapshots registries from HTTP goroutines).
func TestRegistrySnapshotConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			var n uint64
			for i := 0; i < 200; i++ {
				r.Counter("conc.counter", Labels{Core: g, Component: "t"}, func() uint64 { return n })
				r.Gauge("conc.gauge", Labels{Core: g, Component: "t"}, func() float64 { return 1 })
			}
		}(g)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
				r.Sum("conc.counter")
				r.Names()
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if got := len(r.Snapshot()); got != 4*200*2 {
		t.Errorf("snapshot has %d instruments, want %d", got, 4*200*2)
	}
}

// TestTracerWraparoundBoundary pins the exact boundary: filling the ring
// to capacity drops nothing; one more event drops exactly one and the
// survivor window slides by one.
func TestTracerWraparoundBoundary(t *testing.T) {
	tr := NewTracer(8)
	for i := uint64(0); i < 8; i++ {
		tr.Emit(EvPrefetchIssued, i, 0, i, 0)
	}
	if tr.Count() != 8 || tr.Dropped() != 0 {
		t.Fatalf("at capacity: count %d dropped %d, want 8/0", tr.Count(), tr.Dropped())
	}
	if evs := tr.Events(); evs[0].Cycle != 0 || evs[7].Cycle != 7 {
		t.Fatalf("pre-wrap window [%d..%d], want [0..7]", evs[0].Cycle, evs[7].Cycle)
	}
	tr.Emit(EvPrefetchIssued, 8, 0, 8, 0)
	if tr.Count() != 8 || tr.Dropped() != 1 {
		t.Fatalf("after wrap: count %d dropped %d, want 8/1", tr.Count(), tr.Dropped())
	}
	evs := tr.Events()
	if evs[0].Cycle != 1 || evs[7].Cycle != 8 {
		t.Errorf("post-wrap window [%d..%d], want [1..8]", evs[0].Cycle, evs[7].Cycle)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle != evs[i-1].Cycle+1 {
			t.Fatalf("window not contiguous: %v", evs)
		}
	}
}
