package dram

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/simerr"
)

// refModel is the naive backpressure model that per-channel parking must
// reproduce: one global retry list in arrival order, every entry offered
// through the per-request path on every cycle, and one reject counted per
// refused attempt. It steps its memory the way the controllers did before
// they paid per event (step, in retire_test.go).
type refModel struct {
	m        *Memory
	pending  []*memreq.Request
	inflight [][]*entry // per channel, scheduled, awaiting doneAt
	minDone  []uint64   // per channel, min doneAt over inflight (stale when empty)
	cov      *parkCoverage
}

func newRefModel(cfg Config, cov *parkCoverage) *refModel {
	return &refModel{m: New(cfg), inflight: make([][]*entry, cfg.Channels),
		minDone: make([]uint64, cfg.Channels), cov: cov}
}

// try offers req through the per-request path, counting a refusal.
func (r *refModel) try(cycle uint64, req *memreq.Request) bool {
	if r.m.enqueue(cycle, r.m.chans[r.m.ChannelOf(req.Addr)], req) {
		return true
	}
	r.m.stats.Rejects++
	return false
}

func (r *refModel) offer(cycle uint64, req *memreq.Request) {
	if !r.try(cycle, req) {
		r.pending = append(r.pending, req)
	}
}

func (r *refModel) retry(cycle uint64) {
	kept := r.pending[:0]
	for _, req := range r.pending {
		if !r.try(cycle, req) {
			kept = append(kept, req)
		}
	}
	r.pending = kept
}

// parkScenario is one randomized differential run.
type parkScenario struct {
	cfg           Config
	arrivalsFirst bool // offer each cycle's arrivals before retrying parked requests
	cycles        int
	maxGap        int // > 0: visit cycles up to maxGap apart, so several entries fall due per Step
}

func randomScenario(rng *rand.Rand) parkScenario {
	cfg := Config{
		Channels:   []int{1, 2, 4}[rng.IntN(3)],
		Banks:      2,
		RowBytes:   256,
		BlockBytes: 64,
		QueueSize:  1 + rng.IntN(4),
		TCL:        1 + rng.IntN(9),
		TRCD:       1 + rng.IntN(9),
		TRP:        1 + rng.IntN(10),
		BusCycles:  1 + rng.IntN(8),
		Overhead:   rng.IntN(40),
	}
	if rng.IntN(3) == 0 {
		cfg.AgePromote = 1 + rng.IntN(50)
	}
	return parkScenario{cfg: cfg, arrivalsFirst: rng.IntN(4) == 0, cycles: 400 + rng.IntN(400)}
}

// TestParkingMatchesReferenceModel drives identical random request
// streams through Offer/RetryParked and through refModel, and requires
// identical completion order on every cycle, identical Stats, and
// identical span stamps. The streams mix demands, prefetches and
// writebacks over a small address pool (so requests merge onto entries
// pushed earlier in the same retry pass), burst on a hot channel so it
// stays full while the others drain, and upgrade buffered or parked
// prefetches the way an MRQ demand merge does. Every third scenario
// visits cycles with gaps, as the cycle-skipping loop does.
func TestParkingMatchesReferenceModel(t *testing.T) {
	var cov parkCoverage
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		sc := randomScenario(rng)
		if seed%3 == 0 {
			sc.maxGap = 12
		}
		if err := runParkScenario(sc, rng, &cov); err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, sc, err)
		}
	}
	// The streams must reach every path the equivalence argument covers.
	if cov.shortcuts == 0 || cov.freshChecks == 0 || cov.earlyStops == 0 || cov.retryMerges == 0 ||
		cov.multiDue == 0 {
		t.Fatalf("streams missed a retry or retirement path: %+v", cov)
	}
}

// parkCoverage counts how often the streams reached each retry and
// retirement path.
type parkCoverage struct {
	shortcuts   int    // unmarked channel charged without a pass
	freshChecks int    // pass begun on a full queue with reads indexed since the last
	earlyStops  int    // pass stopped on a full queue because no read was indexed
	retryMerges uint64 // inter-core merges made by RetryParked
	multiDue    int    // Step retired several accesses of one channel
}

// observe classifies the pass RetryParked is about to run on ch. With no
// fresh read, no parked read can merge before one is indexed, so the
// pass fills the queue's free slots in order and stops as soon as it is
// full if every request that took a slot was a writeback.
func (cov *parkCoverage) observe(ch *channel, queueSize int) {
	if len(ch.parked) == 0 {
		return
	}
	free := queueSize - ch.queue.Len()
	switch {
	case !ch.retry:
		cov.shortcuts++
	case len(ch.fresh) > 0 && free == 0:
		cov.freshChecks++
	case len(ch.fresh) == 0 && len(ch.parked) > free:
		for _, r := range ch.parked[:free] {
			if r.Kind != memreq.Writeback {
				return
			}
		}
		cov.earlyStops++
	}
}

func runParkScenario(sc parkScenario, rng *rand.Rand, cov *parkCoverage) error {
	got := New(sc.cfg)
	ref := newRefModel(sc.cfg, cov)
	// Twin requests: index i is the same request on both sides.
	var mine, theirs []*memreq.Request
	id := map[*memreq.Request]int{}
	newTwin := func(addr uint64, kind memreq.Kind) (*memreq.Request, *memreq.Request) {
		a := memreq.New(addr, 64, kind, rng.IntN(4), 0, 0, 0)
		b := memreq.New(addr, 64, kind, a.CoreID, 0, 0, 0)
		a.Span, b.Span = &memreq.Span{}, &memreq.Span{}
		id[a], id[b] = len(mine), len(mine)
		mine, theirs = append(mine, a), append(theirs, b)
		return a, b
	}
	retry := func(c uint64) {
		for _, ch := range got.chans {
			cov.observe(ch, sc.cfg.QueueSize)
		}
		merges := got.Stats().InterCoreMerges
		got.RetryParked(c)
		cov.retryMerges += got.Stats().InterCoreMerges - merges
		ref.retry(c)
	}
	next := func(c uint64) uint64 {
		if sc.maxGap == 0 {
			return c + 1
		}
		return c + 1 + uint64(rng.IntN(sc.maxGap))
	}
	hot := uint64(rng.IntN(sc.cfg.Channels))
	var arrA, arrB, doneA, doneB []*memreq.Request
	for c := uint64(0); c < uint64(sc.cycles); c = next(c) {
		arrA, arrB = arrA[:0], arrB[:0]
		if c < uint64(sc.cycles)*3/4 { // then drain
			n := rng.IntN(3)
			if c%64 < 16 {
				n += rng.IntN(6) // burst
			}
			for i := 0; i < n; i++ {
				ch := hot
				if rng.IntN(3) == 0 {
					ch = uint64(rng.IntN(sc.cfg.Channels))
				}
				block := uint64(rng.IntN(6))*uint64(sc.cfg.Channels) + ch
				kind := []memreq.Kind{memreq.Demand, memreq.Demand, memreq.Prefetch, memreq.Prefetch, memreq.Writeback}[rng.IntN(5)]
				a, b := newTwin(block*64, kind)
				arrA, arrB = append(arrA, a), append(arrB, b)
			}
			if len(mine) > 0 && rng.IntN(4) == 0 {
				// An MRQ demand merge upgrades a prefetch wherever it sits.
				i := rng.IntN(len(mine))
				if mine[i].Kind == memreq.Prefetch {
					mine[i].MergeDemand(nil)
					theirs[i].MergeDemand(nil)
				}
			}
		}
		if !sc.arrivalsFirst {
			retry(c)
		}
		for i := range arrA {
			got.Offer(c, arrA[i])
			ref.offer(c, arrB[i])
		}
		if sc.arrivalsFirst {
			retry(c)
		}
		doneA = got.Step(c, doneA[:0])
		doneB = ref.step(c, doneB[:0])
		if len(doneA) != len(doneB) {
			return fmt.Errorf("cycle %d: %d completions, reference %d", c, len(doneA), len(doneB))
		}
		for i := range doneA {
			if id[doneA[i]] != id[doneB[i]] {
				return fmt.Errorf("cycle %d: completion %d is request %d, reference %d", c, i, id[doneA[i]], id[doneB[i]])
			}
		}
		if got.Parked() != len(ref.pending) {
			return fmt.Errorf("cycle %d: %d parked, reference %d pending", c, got.Parked(), len(ref.pending))
		}
		if got.Stats() != ref.m.Stats() {
			return fmt.Errorf("cycle %d: stats %+v, reference %+v", c, got.Stats(), ref.m.Stats())
		}
		if err := got.CheckInvariants(c); err != nil {
			return err
		}
	}
	for c := uint64(sc.cycles); !got.Drained() || !ref.drained(); c = next(c) {
		if c > uint64(sc.cycles)+100_000 {
			return errors.New("did not drain")
		}
		retry(c)
		doneA = got.Step(c, doneA[:0])
		doneB = ref.step(c, doneB[:0])
		for i := range doneA {
			if i >= len(doneB) || id[doneA[i]] != id[doneB[i]] {
				return fmt.Errorf("drain cycle %d: completion order diverged", c)
			}
		}
		if len(doneA) != len(doneB) {
			return fmt.Errorf("drain cycle %d: %d completions, reference %d", c, len(doneA), len(doneB))
		}
	}
	if got.Stats() != ref.m.Stats() {
		return fmt.Errorf("final stats %+v, reference %+v", got.Stats(), ref.m.Stats())
	}
	for i := range mine {
		if *mine[i].Span != *theirs[i].Span {
			return fmt.Errorf("request %d span %+v, reference %+v", i, *mine[i].Span, *theirs[i].Span)
		}
	}
	return nil
}

// TestCheckInvariantsCatchesParkedCount corrupts the parked count and
// expects the sweep to report a typed dram invariant violation.
func TestCheckInvariantsCatchesParkedCount(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 1
	m := New(cfg)
	m.Offer(0, demand(0))
	m.Offer(0, demand(128)) // channel 0 full: parked
	if err := m.CheckInvariants(0); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	m.parked++
	err := m.CheckInvariants(7)
	var ie *simerr.InvariantError
	if !errors.As(err, &ie) || !errors.Is(err, simerr.ErrInvariant) {
		t.Fatalf("corrupted parked count returned %v (%T), want *InvariantError", err, err)
	}
	if ie.Component != "dram" || ie.Name != "parked-count" || ie.Cycle != 7 {
		t.Fatalf("got %s/%s at cycle %d, want dram/parked-count at 7", ie.Component, ie.Name, ie.Cycle)
	}
}

// TestCheckInvariantsCatchesDoubleBooking parks a request that is also
// buffered — the state a retry that forgot to unpark would leave.
func TestCheckInvariantsCatchesDoubleBooking(t *testing.T) {
	m := New(testConfig())
	r := demand(0)
	m.Offer(0, r)
	ch := m.chans[0]
	ch.parked = append(ch.parked, r)
	m.parked++
	var ie *simerr.InvariantError
	if err := m.CheckInvariants(1); !errors.As(err, &ie) || ie.Name != "parked-exclusive" {
		t.Fatalf("double-booked request returned %v, want dram/parked-exclusive", err)
	}
}

// TestCheckInvariantsCatchesBookkeeping corrupts, one at a time, each
// piece of the per-event bookkeeping and expects the sweep to name the
// invariant it breaks.
func TestCheckInvariantsCatchesBookkeeping(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *Memory)
	}{
		{"ring-order", func(m *Memory) {
			a, b := m.chans[0].bus.At(0), m.chans[0].bus.At(1)
			a.doneAt, b.doneAt = b.doneAt, a.doneAt
		}},
		{"wake-entry", func(m *Memory) { m.chans[0].wake = never }},
		{"wake-min", func(m *Memory) { m.minWake = 0 }},
		{"retry-count", func(m *Memory) { m.retries++ }},
		{"retry-mark", func(m *Memory) { m.chans[0].retry, m.retries = false, 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Channel 0, one queue slot: three accesses in flight on the
			// bus ring, one request parked behind the slot the last
			// schedule freed.
			cfg := testConfig()
			cfg.QueueSize = 1
			m := New(cfg)
			m.Offer(0, demand(0))
			m.Offer(0, demand(128))
			m.Step(0, nil)
			m.RetryParked(1)
			m.Step(1, nil)
			m.RetryParked(2)
			m.Offer(2, demand(256))
			m.Offer(2, demand(384))
			m.Step(2, nil)
			if err := m.CheckInvariants(2); err != nil {
				t.Fatalf("clean state flagged: %v", err)
			}
			tc.corrupt(m)
			var ie *simerr.InvariantError
			if err := m.CheckInvariants(2); !errors.As(err, &ie) || ie.Component != "dram" || ie.Name != tc.name {
				t.Fatalf("corruption returned %v, want dram/%s", err, tc.name)
			}
		})
	}
}
