package memreq

import "testing"

// TestPoolRecycleClearsAttribution: a recycled Request must not leak the
// previous lifecycle's prefetch state — provenance, terminal outcome,
// merge flags, or waiters. A stale WasPrefetch would misclassify a demand
// fill; stale Prov would charge a demand's behaviour to a prefetcher.
func TestPoolRecycleClearsAttribution(t *testing.T) {
	p := NewPool()
	r := p.Get(0x1040, 64, Prefetch, 1, 2, 3, 10)
	r.Prov = Provenance{Source: SrcGS, Degree: 4, TrainPC: 7, Warp: 9}
	r.Outcome = OutLate
	r.DemandMerged = true
	r.Kind = Demand // merged demand upgraded the kind
	r.Waiters = append(r.Waiters, Waiter{Warp: 5, Reg: 2})
	p.Put(r)

	r2 := p.Get(0x2080, 64, Demand, 0, 1, 8, 20)
	if r2 != r {
		t.Fatal("pool did not recycle the request")
	}
	if r2.WasPrefetch {
		t.Error("recycled demand leaked WasPrefetch")
	}
	if r2.DemandMerged {
		t.Error("recycled request leaked DemandMerged")
	}
	if r2.Prov != (Provenance{}) {
		t.Errorf("recycled request leaked provenance %+v", r2.Prov)
	}
	if r2.Outcome != OutNone {
		t.Errorf("recycled request leaked outcome %v", r2.Outcome)
	}
	if len(r2.Waiters) != 0 {
		t.Errorf("recycled request leaked %d waiters", len(r2.Waiters))
	}
	if r2.Addr != 0x2080 || r2.Kind != Demand || r2.CoreID != 0 || r2.WarpID != 1 ||
		r2.PC != 8 || r2.IssueCycle != 20 {
		t.Errorf("recycled request fields wrong: %+v", r2)
	}

	// The prefetch direction too: a recycled prefetch must start with
	// fresh attribution, not the previous owner's.
	p.Put(r2)
	r3 := p.Get(0x3000, 64, Prefetch, 2, 3, 4, 30)
	if !r3.WasPrefetch || r3.Prov != (Provenance{}) || r3.Outcome != OutNone {
		t.Errorf("recycled prefetch not reset: %+v", r3)
	}
}

// TestPoolRecycleClearsSpan: a recycled Request must not carry the
// previous lifecycle's span record. A leaked span would stamp a fresh
// (unsampled) request into a finished trace, double-finishing it and
// corrupting the waterfall — the span analogue of the attribution leak
// above.
func TestPoolRecycleClearsSpan(t *testing.T) {
	p := NewPool()
	r := p.Get(0x1040, 64, Demand, 1, 2, 3, 10)
	r.Span = &Span{ID: 42}
	r.Span.StampAt(SpanIssue, 10)
	r.Span.StampAt(SpanMRQEnqueue, 10)
	r.SpanFlag(FlagRowHit)
	r.Span.Term = TermFill
	p.Put(r)

	r2 := p.Get(0x2080, 64, Demand, 0, 1, 8, 20)
	if r2 != r {
		t.Fatal("pool did not recycle the request")
	}
	if r2.Span != nil {
		t.Errorf("recycled request leaked span %+v", r2.Span)
	}
	// StampSpan / SpanFlag on the recycled (unsampled) request must be
	// no-ops, not resurrect the old span.
	r2.StampSpan(SpanFill, 30)
	r2.SpanFlag(FlagRowMiss)
	if r2.Span != nil {
		t.Error("stamping an unsampled request created a span")
	}
}
