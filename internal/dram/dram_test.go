package dram

import (
	"testing"
	"testing/quick"

	"mtprefetch/internal/memreq"
)

// testConfig: 2 channels, 2 banks, small rows, easy numbers.
func testConfig() Config {
	return Config{
		Channels:   2,
		Banks:      2,
		RowBytes:   256, // 4 blocks per row
		BlockBytes: 64,
		QueueSize:  4,
		TCL:        9,
		TRCD:       9,
		TRP:        10,
		BusCycles:  8,
	}
}

func demand(addr uint64) *memreq.Request {
	return memreq.New(addr, 64, memreq.Demand, 0, 0, 0, 0)
}

func prefetch(addr uint64) *memreq.Request {
	return memreq.New(addr, 64, memreq.Prefetch, 1, 0, 0, 0)
}

// offer delivers r and reports whether it was accepted rather than parked.
func offer(m *Memory, cycle uint64, r *memreq.Request) bool {
	before := m.Parked()
	m.Offer(cycle, r)
	return m.Parked() == before
}

// run advances the memory until drained or maxCycles, collecting responses.
func run(m *Memory, from uint64, maxCycles int) []*memreq.Request {
	var done []*memreq.Request
	for c := from; c < from+uint64(maxCycles); c++ {
		m.RetryParked(c)
		done = m.Step(c, done)
		if m.Drained() {
			break
		}
	}
	return done
}

func TestSingleReadLatency(t *testing.T) {
	m := New(testConfig())
	r := demand(64)
	if !offer(m, 0, r) {
		t.Fatal("enqueue refused")
	}
	done := run(m, 0, 1000)
	if len(done) != 1 || done[0] != r {
		t.Fatalf("done = %v", done)
	}
	s := m.Stats()
	if s.Demands != 1 {
		t.Errorf("Demands = %d, want 1", s.Demands)
	}
	if s.RowClosed != 1 {
		t.Errorf("RowClosed = %d, want 1 (first access to idle bank)", s.RowClosed)
	}
}

func TestChannelInterleaving(t *testing.T) {
	m := New(testConfig())
	// Consecutive blocks alternate channels.
	if m.ChannelOf(0) == m.ChannelOf(64) {
		t.Error("adjacent blocks on same channel")
	}
	if m.ChannelOf(0) != m.ChannelOf(128) {
		t.Error("stride-2 blocks should revisit the channel")
	}
}

func TestRowHitVsConflict(t *testing.T) {
	m := New(testConfig())
	// Blocks 0 and 128 are channel 0; with 4-block rows per channel they
	// share a row (chanBlocks 0 and 1).
	offer(m, 0, demand(0))
	offer(m, 0, demand(128))
	run(m, 0, 1000)
	s := m.Stats()
	if s.RowHits != 1 {
		t.Errorf("RowHits = %d, want 1 (same row)", s.RowHits)
	}

	// Now touch a different row on the same bank: channel 0 has 4-block
	// rows and 2 banks, so chanBlock 8 (addr 8*2*64=1024) is bank 0 row 1.
	m2 := New(testConfig())
	offer(m2, 0, demand(0))
	offer(m2, 0, demand(1024))
	run(m2, 0, 1000)
	s2 := m2.Stats()
	if s2.RowMisses != 1 {
		t.Errorf("RowMisses = %d, want 1 (row conflict)", s2.RowMisses)
	}
}

func TestDemandPriorityOverPrefetch(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	// Same channel: prefetch enqueued first, demand second, different rows.
	p := prefetch(0)
	d := demand(1024)
	offer(m, 0, p)
	offer(m, 0, d)
	// Step once: scheduler must pick the demand despite arrival order.
	var done []*memreq.Request
	var dDone, pDone uint64
	for c := uint64(0); c < 500; c++ {
		done = done[:0]
		done = m.Step(c, done)
		for _, r := range done {
			if r == d {
				dDone = c
			}
			if r == p {
				pDone = c
			}
		}
		if m.Drained() {
			break
		}
	}
	if dDone == 0 || pDone == 0 {
		t.Fatal("requests not completed")
	}
	if dDone >= pDone {
		t.Errorf("demand finished at %d, prefetch at %d; demand must win", dDone, pDone)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	// Three demands, same channel: A row0, B row1(conflict), C row0.
	a, b, c := demand(0), demand(1024), demand(128)
	offer(m, 0, a)
	offer(m, 0, b)
	offer(m, 0, c)
	order := map[*memreq.Request]uint64{}
	var done []*memreq.Request
	for cyc := uint64(0); cyc < 1000; cyc++ {
		done = done[:0]
		done = m.Step(cyc, done)
		for _, r := range done {
			order[r] = cyc
		}
		if m.Drained() {
			break
		}
	}
	// After A opens row 0, C (row-hit) must be served before B.
	if !(order[c] < order[b]) {
		t.Errorf("row-hit C at %d not before conflict B at %d", order[c], order[b])
	}
}

func TestInterCoreMerging(t *testing.T) {
	m := New(testConfig())
	a := demand(64)
	b := demand(64) // same block, conceptually another core
	b.CoreID = 1
	offer(m, 0, a)
	offer(m, 0, b)
	done := run(m, 0, 1000)
	if len(done) != 2 {
		t.Fatalf("done = %d responses, want both merged requests", len(done))
	}
	s := m.Stats()
	if s.InterCoreMerges != 1 {
		t.Errorf("InterCoreMerges = %d, want 1", s.InterCoreMerges)
	}
	if s.Demands != 1 {
		t.Errorf("Demands = %d, want 1 (one access serves both)", s.Demands)
	}
}

func TestDemandMergeUpgradesBufferedPrefetch(t *testing.T) {
	m := New(testConfig())
	p := prefetch(64)
	d := demand(64)
	offer(m, 0, p)
	offer(m, 0, d)
	done := run(m, 0, 1000)
	if len(done) != 2 {
		t.Fatalf("expected 2 responses, got %d", len(done))
	}
	if p.Kind != memreq.Demand || !p.DemandMerged {
		t.Errorf("buffered prefetch not upgraded: %+v", p)
	}
}

func TestQueueFullRejects(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	// Fill channel 0's queue (stride 2 blocks stays on channel 0).
	for i := 0; i < cfg.QueueSize; i++ {
		if !offer(m, 0, demand(uint64(i*128))) {
			t.Fatalf("enqueue %d refused below capacity", i)
		}
	}
	over := demand(9999 * 128)
	if offer(m, 0, over) {
		t.Fatal("enqueue accepted above capacity")
	}
	if got := m.Stats().Rejects; got != 1 {
		t.Errorf("Rejects = %d, want 1", got)
	}
	if m.Parked() != 1 || m.ParkedLen(0) != 1 || m.ParkedLen(1) != 0 {
		t.Errorf("parked %d (ch0 %d, ch1 %d), want the one reject on channel 0",
			m.Parked(), m.ParkedLen(0), m.ParkedLen(1))
	}
	// Merging is allowed even when full.
	if !offer(m, 0, demand(0)) {
		t.Error("merge refused at capacity")
	}
	// Each retry against a still-full queue counts one more reject.
	m.RetryParked(1)
	if got := m.Stats().Rejects; got != 2 {
		t.Errorf("Rejects after a full retry = %d, want 2", got)
	}
	if m.Drained() {
		t.Error("Drained() true with a parked request")
	}
	// The parked request arrives once a slot frees, and completes.
	done := run(m, 1, 10_000)
	found := false
	for _, r := range done {
		found = found || r == over
	}
	if !found || m.Parked() != 0 || !m.Drained() {
		t.Errorf("parked request never completed (found %v, parked %d)", found, m.Parked())
	}
}

func TestWritebackNoResponse(t *testing.T) {
	m := New(testConfig())
	wb := memreq.New(64, 64, memreq.Writeback, 0, 0, 0, 0)
	offer(m, 0, wb)
	done := run(m, 0, 1000)
	if len(done) != 0 {
		t.Fatalf("writeback produced %d responses", len(done))
	}
	if got := m.Stats().Writebacks; got != 1 {
		t.Errorf("Writebacks = %d, want 1", got)
	}
}

func TestWritebacksDoNotMergeWithReads(t *testing.T) {
	m := New(testConfig())
	wb := memreq.New(64, 64, memreq.Writeback, 0, 0, 0, 0)
	d := demand(64)
	offer(m, 0, wb)
	offer(m, 0, d)
	done := run(m, 0, 1000)
	if len(done) != 1 || done[0] != d {
		t.Fatalf("done = %v, want just the demand", done)
	}
	if got := m.Stats().InterCoreMerges; got != 0 {
		t.Errorf("InterCoreMerges = %d, want 0", got)
	}
}

func TestBusSerializesTransfers(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	// Two row-hit reads on one channel: completions must be >= BusCycles apart.
	offer(m, 0, demand(0))
	offer(m, 0, demand(128))
	var times []uint64
	var done []*memreq.Request
	for c := uint64(0); c < 1000; c++ {
		done = done[:0]
		done = m.Step(c, done)
		for range done {
			times = append(times, c)
		}
		if m.Drained() {
			break
		}
	}
	if len(times) != 2 {
		t.Fatalf("completions = %d, want 2", len(times))
	}
	if times[1]-times[0] < uint64(cfg.BusCycles) {
		t.Errorf("transfers %d cycles apart, want >= %d", times[1]-times[0], cfg.BusCycles)
	}
}

func TestThroughputUnderLoad(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	// Keep channel 0 saturated with row-hit traffic; service rate should
	// approach one block per BusCycles.
	next := uint64(0)
	completed := 0
	for c := uint64(0); c < 2000; c++ {
		for m.QueueLen(0) < cfg.QueueSize {
			offer(m, c, demand(next))
			next += 128 // stay on channel 0
		}
		var done []*memreq.Request
		done = m.Step(c, done)
		completed += len(done)
	}
	// Ideal is one block per BusCycles; row crossings every 4 blocks eat
	// some of that, so expect at least 80% utilization.
	minExpected := 2000 / cfg.BusCycles * 8 / 10
	if completed < minExpected {
		t.Errorf("completed %d in 2000 cycles, want >= %d", completed, minExpected)
	}
}

func TestDrained(t *testing.T) {
	m := New(testConfig())
	if !m.Drained() {
		t.Error("fresh memory not drained")
	}
	offer(m, 0, demand(0))
	if m.Drained() {
		t.Error("queued request but Drained() true")
	}
	run(m, 0, 1000)
	if !m.Drained() {
		t.Error("not drained after completion")
	}

	// A parked request keeps the system undrained even once every buffer
	// has emptied without a retry.
	cfg := testConfig()
	cfg.QueueSize = 1
	m = New(cfg)
	m.Offer(0, demand(0))
	m.Offer(0, demand(128))
	for c := uint64(0); c < 1000; c++ {
		m.Step(c, nil)
	}
	if m.QueueLen(0) != 0 || m.Parked() != 1 || m.Drained() {
		t.Errorf("queue %d, parked %d, Drained() %v: want 0, 1, false",
			m.QueueLen(0), m.Parked(), m.Drained())
	}
}

// TestConservationProperty: under random request streams, every offered
// read — parked ones included — completes exactly once and nothing is
// invented.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint32, n uint8) bool {
		cfg := testConfig()
		cfg.QueueSize = 64
		m := New(cfg)
		rng := seed
		next := func() uint32 { rng = rng*1664525 + 1013904223; return rng }
		want := 0
		issued := map[*memreq.Request]bool{}
		for i := 0; i < int(n); i++ {
			addr := uint64(next()%256) * 64
			var r *memreq.Request
			switch next() % 3 {
			case 0:
				r = demand(addr)
			case 1:
				r = prefetch(addr)
			default:
				r = memreq.New(addr, 64, memreq.Writeback, 0, 0, 0, 0)
			}
			m.Offer(uint64(i), r)
			if r.Kind != memreq.Writeback {
				want++
				issued[r] = true
			}
		}
		got := 0
		var done []*memreq.Request
		for c := uint64(0); c < 100_000; c++ {
			m.RetryParked(c)
			done = m.Step(c, done[:0])
			for _, r := range done {
				if !issued[r] {
					return false // invented or double response
				}
				delete(issued, r)
				got++
			}
			if m.Drained() {
				break
			}
		}
		return got == want && m.Drained()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
