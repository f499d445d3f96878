package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/simerr"
)

// sampledSeq returns the first sequence number at or after start that
// the sampler selects for (core, warp) at the given rate.
func sampledSeq(t *testing.T, core, warp int, start, every uint64) uint64 {
	t.Helper()
	for seq := start; seq < start+every*64; seq++ {
		if SpanSampled(core, warp, seq, every) {
			return seq
		}
	}
	t.Fatalf("no sampled seq in [%d, %d) for core %d warp %d every %d",
		start, start+every*64, core, warp, every)
	return 0
}

// startSampled builds a request and attaches a span to it via the
// sampler, failing the test if the chosen seq is not selected.
func startSampled(t *testing.T, ss *SpanSet, core, warp int, cycle uint64) *memreq.Request {
	t.Helper()
	seq := sampledSeq(t, core, warp, 0, ss.every)
	r := &memreq.Request{Addr: 0x1000, CoreID: core, WarpID: warp, PC: 7}
	ss.Start(r, seq, cycle)
	if r.Span == nil {
		t.Fatalf("seq %d selected by SpanSampled but Start attached no span", seq)
	}
	return r
}

// stampFill walks a request through the canonical uncontended fill
// path, returning the fill cycle.
func stampFill(r *memreq.Request, base uint64) uint64 {
	r.StampSpan(memreq.SpanMRQEnqueue, base+1)
	r.StampSpan(memreq.SpanMRQDequeue, base+4)
	r.StampSpan(memreq.SpanNoCReqInject, base+4)
	r.StampSpan(memreq.SpanNoCReqDeliver, base+24)
	r.StampSpan(memreq.SpanDRAMArrive, base+24)
	r.StampSpan(memreq.SpanDRAMSched, base+40)
	r.StampSpan(memreq.SpanDRAMActivate, base+42)
	r.StampSpan(memreq.SpanDRAMDone, base+90)
	r.StampSpan(memreq.SpanNoCRespInject, base+90)
	r.StampSpan(memreq.SpanNoCRespDeliver, base+110)
	r.StampSpan(memreq.SpanFill, base+110)
	return base + 110
}

// TestSpanHashDeterministic pins the sampling contract: the hash is a
// pure function of the simulated identity, and the selection rate is
// close to 1-in-every over a dense sequence range.
func TestSpanHashDeterministic(t *testing.T) {
	if a, b := SpanHash(3, 17, 900), SpanHash(3, 17, 900); a != b {
		t.Errorf("SpanHash not deterministic: %#x vs %#x", a, b)
	}
	if SpanHash(3, 17, 900) == SpanHash(3, 17, 901) {
		t.Error("adjacent sequence numbers hash identically")
	}
	if SpanHash(3, 17, 900) == SpanHash(4, 17, 900) {
		t.Error("different cores hash identically")
	}
	const every, n = 32, 100000
	var hits int
	for seq := uint64(0); seq < n; seq++ {
		if SpanSampled(2, 9, seq, every) {
			hits++
		}
	}
	want := n / every
	if hits < want/2 || hits > want*2 {
		t.Errorf("sampled %d of %d at 1-in-%d; expected about %d", hits, n, every, want)
	}
}

// TestSpanStartSampling: Start attaches spans to exactly the selected
// sequence numbers and counts them.
func TestSpanStartSampling(t *testing.T) {
	ss := NewSpanSet(4)
	var attached uint64
	for seq := uint64(0); seq < 256; seq++ {
		r := &memreq.Request{CoreID: 1, WarpID: 2}
		ss.Start(r, seq, 100)
		if got, want := r.Span != nil, SpanSampled(1, 2, seq, 4); got != want {
			t.Fatalf("seq %d: span attached %v, sampler says %v", seq, got, want)
		}
		if r.Span != nil {
			attached++
			if r.Span.ID != SpanID(1, seq) {
				t.Errorf("seq %d: span id %#x, want %#x", seq, r.Span.ID, SpanID(1, seq))
			}
			if !r.Span.Has(memreq.SpanIssue) {
				t.Errorf("seq %d: no issue stamp at start", seq)
			}
		}
	}
	if attached == 0 {
		t.Fatal("no spans attached over 256 sequences at 1-in-4")
	}
	if ss.Started() != attached {
		t.Errorf("Started() = %d, want %d", ss.Started(), attached)
	}
}

// TestSpanFillRoundTrip: a fully stamped fill validates, decomposes
// into the five telescoping stages, and exports.
func TestSpanFillRoundTrip(t *testing.T) {
	ss := NewSpanSet(4)
	r := startSampled(t, ss, 3, 11, 1000)
	end := stampFill(r, 1000)
	ss.Finish(r, end, memreq.TermFill)
	if r.Span != nil {
		t.Error("Finish left the span attached to the request")
	}
	if err := ss.CheckConservation(end, true); err != nil {
		t.Fatalf("well-formed fill failed conservation: %v", err)
	}
	recs := ss.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	st, total := recs[0].Stages()
	want := [NumSpanStages]uint64{4, 20, 16, 50, 20}
	if st != want {
		t.Errorf("stages = %v, want %v", st, want)
	}
	if total != 110 {
		t.Errorf("total = %d, want 110", total)
	}
	var buf bytes.Buffer
	if err := ss.WriteJSONL(&buf, "rt"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{`"record":"span"`, `"terminal":"fill"`,
		`"total":110`, `"dram_service":50`, `"record":"spansummary"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("JSONL missing %s:\n%s", frag, out)
		}
	}
}

// TestSpanRiderDecomposition: an inter-core merge rider (FlagDRAMMerged)
// is never scheduled itself, so its wait is all dram_queue and its
// dram_service is zero.
func TestSpanRiderDecomposition(t *testing.T) {
	ss := NewSpanSet(4)
	r := startSampled(t, ss, 5, 3, 0)
	r.StampSpan(memreq.SpanMRQEnqueue, 1)
	r.StampSpan(memreq.SpanMRQDequeue, 2)
	r.StampSpan(memreq.SpanNoCReqInject, 2)
	r.StampSpan(memreq.SpanNoCReqDeliver, 22)
	r.StampSpan(memreq.SpanDRAMArrive, 22)
	r.SpanFlag(memreq.FlagDRAMMerged)
	r.StampSpan(memreq.SpanDRAMDone, 80)
	r.StampSpan(memreq.SpanNoCRespInject, 80)
	r.StampSpan(memreq.SpanNoCRespDeliver, 100)
	r.StampSpan(memreq.SpanFill, 100)
	ss.Finish(r, 100, memreq.TermFill)
	if err := ss.CheckConservation(100, true); err != nil {
		t.Fatalf("rider span failed conservation: %v", err)
	}
	st, total := ss.Records()[0].Stages()
	if st[StageDRAMQueue] != 58 || st[StageDRAMService] != 0 {
		t.Errorf("rider decomposition: dram_queue %d (want 58), dram_service %d (want 0)",
			st[StageDRAMQueue], st[StageDRAMService])
	}
	var sum uint64
	for _, d := range st {
		sum += d
	}
	if sum != total {
		t.Errorf("rider stages sum to %d but total is %d", sum, total)
	}
}

// TestSpanMissingStampFires: deliberately dropping a required stage
// stamp must surface as a missing-stamp invariant error — the test the
// ISSUE requires proving the conservation check actually bites.
func TestSpanMissingStampFires(t *testing.T) {
	ss := NewSpanSet(4)
	r := startSampled(t, ss, 2, 6, 500)
	r.StampSpan(memreq.SpanMRQEnqueue, 501)
	r.StampSpan(memreq.SpanMRQDequeue, 504)
	r.StampSpan(memreq.SpanNoCReqInject, 504)
	r.StampSpan(memreq.SpanNoCReqDeliver, 524)
	r.StampSpan(memreq.SpanDRAMArrive, 524)
	// SpanDRAMSched deliberately dropped: a non-merged, non-L2 fill
	// must carry it.
	r.StampSpan(memreq.SpanDRAMActivate, 530)
	r.StampSpan(memreq.SpanDRAMDone, 580)
	r.StampSpan(memreq.SpanNoCRespInject, 580)
	r.StampSpan(memreq.SpanNoCRespDeliver, 600)
	r.StampSpan(memreq.SpanFill, 600)
	ss.Finish(r, 600, memreq.TermFill)
	assertInvariant(t, ss.CheckConservation(600, true), "missing-stamp")
}

// TestSpanExcessStampFires: an MRQ-rejected request must not carry
// stamps past issue.
func TestSpanExcessStampFires(t *testing.T) {
	ss := NewSpanSet(4)
	r := startSampled(t, ss, 1, 1, 10)
	r.StampSpan(memreq.SpanMRQEnqueue, 11)
	ss.Finish(r, 11, memreq.TermMRQRejected)
	assertInvariant(t, ss.CheckConservation(11, true), "excess-stamp")
}

// TestSpanStampOrderFires: present stamps must be monotone in
// lifecycle order.
func TestSpanStampOrderFires(t *testing.T) {
	ss := NewSpanSet(4)
	r := startSampled(t, ss, 4, 8, 1000)
	stampFill(r, 1000)
	// Rewind the DRAM completion behind its scheduling point.
	r.Span.StampAt(memreq.SpanDRAMDone, 1030)
	ss.Finish(r, 1110, memreq.TermFill)
	assertInvariant(t, ss.CheckConservation(1110, true), "stamp-order")
}

// TestSpanDoubleFinishFires: a span reaching a second terminal (a
// recycling bug — Finish detaches, so this needs a re-attach) is a
// single-terminal violation.
func TestSpanDoubleFinishFires(t *testing.T) {
	ss := NewSpanSet(4)
	r := startSampled(t, ss, 6, 2, 0)
	sp := r.Span
	end := stampFill(r, 0)
	ss.Finish(r, end, memreq.TermFill)
	r.Span = sp
	ss.Finish(r, end+1, memreq.TermDropped)
	assertInvariant(t, ss.CheckConservation(end+1, true), "single-terminal")
}

// TestSpanConservationLedger: an unfinished span is fine mid-run
// (drained=false) and an error at drain.
func TestSpanConservationLedger(t *testing.T) {
	ss := NewSpanSet(4)
	startSampled(t, ss, 0, 0, 0)
	if err := ss.CheckConservation(50, false); err != nil {
		t.Errorf("in-flight span failed mid-run conservation: %v", err)
	}
	assertInvariant(t, ss.CheckConservation(50, true), "span-conservation")
}

// TestSpanNilSafety: every method on a nil *SpanSet (spans disabled)
// must be a no-op, and stamps on unsampled requests must be free.
func TestSpanNilSafety(t *testing.T) {
	var ss *SpanSet
	if ss.Enabled() {
		t.Error("nil SpanSet reports enabled")
	}
	r := &memreq.Request{CoreID: 1, WarpID: 1}
	ss.Start(r, 0, 0)
	if r.Span != nil {
		t.Error("nil SpanSet attached a span")
	}
	r.StampSpan(memreq.SpanFill, 10) // unsampled: must not panic
	r.SpanFlag(memreq.FlagL2Hit)
	ss.Finish(r, 10, memreq.TermFill)
	if ss.Started() != 0 || ss.Finished() != 0 || ss.Records() != nil {
		t.Error("nil SpanSet reports state")
	}
	if err := ss.CheckConservation(0, true); err != nil {
		t.Errorf("nil SpanSet failed conservation: %v", err)
	}
	var buf bytes.Buffer
	if err := ss.WriteJSONL(&buf, "x"); err != nil || buf.Len() != 0 {
		t.Errorf("nil SpanSet wrote JSONL: %q, %v", buf.String(), err)
	}
	if err := ss.WriteTable(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil SpanSet wrote a table: %q, %v", buf.String(), err)
	}
}

// assertInvariant requires err to be a spans InvariantError with the
// given name.
func assertInvariant(t *testing.T, err error, name string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected a %s invariant error, got nil", name)
	}
	var ie *simerr.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("expected *simerr.InvariantError, got %T: %v", err, err)
	}
	if ie.Component != "spans" || ie.Name != name {
		t.Errorf("got %s/%s, want spans/%s: %v", ie.Component, ie.Name, name, err)
	}
}
