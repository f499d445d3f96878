// Package mrq implements the per-core Memory Request Queue with intra-core
// merging (Fig. 2a of the paper).
//
// A new request whose block address matches an outstanding entry merges
// into it instead of occupying a slot. Merges are the numerator of the
// throttle engine's merge-ratio metric (Eq. 6); a demand merging into an
// in-flight prefetch additionally marks that prefetch "late".
package mrq

import (
	"fmt"
	"mtprefetch/internal/addrmap"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/ring"
	"mtprefetch/internal/simerr"
)

// AddResult reports what happened to a request offered to the queue.
type AddResult uint8

const (
	// Accepted means a new entry was allocated.
	Accepted AddResult = iota
	// Merged means the request folded into an existing entry.
	Merged
	// Rejected means the queue was full; the issuer must stall and retry.
	Rejected
)

// Stats are the queue's lifetime counters.
type Stats struct {
	Demands    uint64 // new demand entries
	Prefetches uint64 // new prefetch entries
	Writebacks uint64 // new writeback entries
	Merges     uint64 // intra-core merges of any kind (Eq. 6 numerator)

	DemandIntoPrefetch uint64 // late-prefetch merges
	PrefetchMerged     uint64 // prefetches dropped into existing entries
	Rejects            uint64
}

// TotalArrivals is the denominator of the merge ratio: every request that
// arrived at the queue, whether it allocated or merged.
func (s *Stats) TotalArrivals() uint64 {
	return s.Demands + s.Prefetches + s.Writebacks + s.Merges
}

// Queue is one core's MRQ. It tracks entries from allocation until the
// fill returns (Complete), so in-flight requests still absorb merges, like
// an MSHR file.
type Queue struct {
	capacity    int
	byAddr      *addrmap.Table[*memreq.Request]
	sendq       ring.Buffer[*memreq.Request]
	outstanding int
	stats       Stats
	pf          *obs.PFReport // nil: attribution disabled
}

// New creates a queue with the given entry capacity.
func New(capacity int) *Queue {
	return &Queue{
		capacity: capacity,
		byAddr:   addrmap.New[*memreq.Request](capacity),
	}
}

// Stats returns a snapshot of the counters.
func (q *Queue) Stats() Stats { return q.stats }

// Register wires the queue's counters and its occupancy gauge (the MSHR
// occupancy series of the epoch sampler) into the registry.
func (q *Queue) Register(r *obs.Registry, l obs.Labels) {
	st := &q.stats
	r.CounterU64("mrq.demands", l, &st.Demands)
	r.CounterU64("mrq.prefetches", l, &st.Prefetches)
	r.CounterU64("mrq.writebacks", l, &st.Writebacks)
	r.CounterU64("mrq.merges", l, &st.Merges)
	r.CounterU64("mrq.demand_into_prefetch", l, &st.DemandIntoPrefetch)
	r.CounterU64("mrq.prefetch_merged", l, &st.PrefetchMerged)
	r.CounterU64("mrq.rejects", l, &st.Rejects)
	r.Gauge("mrq.outstanding", l, func() float64 { return float64(q.outstanding) })
	r.Gauge("mrq.sendq", l, func() float64 { return float64(q.sendq.Len()) })
}

// SetPFReport attaches prefetch attribution: the queue reports
// demand-into-prefetch merges per provenance bucket (the per-source view
// of the Eq. 6 lateness signal). A nil report disables it.
func (q *Queue) SetPFReport(p *obs.PFReport) { q.pf = p }

// Outstanding reports occupied entries (queued or in flight).
func (q *Queue) Outstanding() int { return q.outstanding }

// Capacity reports the queue's entry capacity.
func (q *Queue) Capacity() int { return q.capacity }

// OldestIssueCycle reports the earliest issue cycle among in-flight
// tracked entries, ok=false when none are in flight. It walks the entry
// table, so it is for epoch-boundary telemetry (the latency-tolerance
// snapshot's oldest-outstanding-fill age), not the per-cycle path.
func (q *Queue) OldestIssueCycle() (uint64, bool) {
	var oldest uint64
	found := false
	q.byAddr.Each(func(r *memreq.Request) {
		if !found || r.IssueCycle < oldest {
			oldest = r.IssueCycle
			found = true
		}
	})
	return oldest, found
}

// SendQueueLen reports requests accepted but not yet injected into the
// network, for diagnostic snapshots.
func (q *Queue) SendQueueLen() int { return q.sendq.Len() }

// WaiterCount sums the waiters attached to in-flight entries, the MRQ
// side of the core's scoreboard-balance invariant.
func (q *Queue) WaiterCount() int {
	n := 0
	q.byAddr.Each(func(r *memreq.Request) { n += len(r.Waiters) })
	return n
}

// CheckInvariants verifies entry accounting (core.Options.Checks): every
// occupied slot must be either an in-flight tracked entry or an unsent
// writeback — an entry completed twice or never completed breaks the
// identity — and occupancy must stay within [0, capacity].
func (q *Queue) CheckInvariants(cycle uint64, core int) error {
	wbs := 0
	for i := 0; i < q.sendq.Len(); i++ {
		if q.sendq.At(i).Kind == memreq.Writeback {
			wbs++
		}
	}
	if want := q.byAddr.Len() + wbs; q.outstanding != want {
		return &simerr.InvariantError{
			Component: "mrq", Name: "entry-accounting", Cycle: cycle,
			Detail: fmt.Sprintf("core %d: %d slots occupied but %d in-flight entries + %d unsent writebacks",
				core, q.outstanding, q.byAddr.Len(), wbs),
		}
	}
	if q.outstanding < 0 || q.outstanding > q.capacity {
		return &simerr.InvariantError{
			Component: "mrq", Name: "capacity", Cycle: cycle,
			Detail: fmt.Sprintf("core %d: occupancy %d outside [0, %d]", core, q.outstanding, q.capacity),
		}
	}
	return nil
}

// Lookup returns the outstanding entry for a block address, or nil. It is
// used by prefetch generation to drop candidates already in flight.
func (q *Queue) Lookup(addr uint64) *memreq.Request { r, _ := q.byAddr.Get(addr); return r }

// Add offers a request to the queue.
func (q *Queue) Add(r *memreq.Request) AddResult {
	if r.Kind != memreq.Writeback {
		if existing, ok := q.byAddr.Get(r.Addr); ok {
			q.stats.Merges++
			switch r.Kind {
			case memreq.Demand:
				if existing.Kind == memreq.Prefetch {
					q.stats.DemandIntoPrefetch++
					if q.pf != nil {
						q.pf.DemandMerge(existing.Prov)
					}
				}
				existing.MergeDemand(r.Waiters)
			case memreq.Prefetch:
				q.stats.PrefetchMerged++
			}
			return Merged
		}
	}
	if q.outstanding >= q.capacity {
		q.stats.Rejects++
		return Rejected
	}
	q.outstanding++
	switch r.Kind {
	case memreq.Demand:
		q.stats.Demands++
	case memreq.Prefetch:
		q.stats.Prefetches++
	case memreq.Writeback:
		q.stats.Writebacks++
	}
	if r.Kind != memreq.Writeback {
		q.byAddr.Put(r.Addr, r)
	}
	q.sendq.Push(r)
	return Accepted
}

// NextSend peeks the oldest unsent request, or nil.
func (q *Queue) NextSend() *memreq.Request {
	r, _ := q.sendq.Front()
	return r
}

// PopSend removes and returns the oldest unsent request. Writebacks are
// fire-and-forget: popping one frees its entry immediately.
func (q *Queue) PopSend() *memreq.Request {
	r, ok := q.sendq.Pop()
	if !ok {
		return nil
	}
	if r.Kind == memreq.Writeback {
		q.outstanding--
	}
	return r
}

// Complete retires the entry for a returned fill and hands it back with
// any merged waiters. It returns nil for unknown addresses.
func (q *Queue) Complete(addr uint64) *memreq.Request {
	r, ok := q.byAddr.Del(addr)
	if !ok {
		return nil
	}
	q.outstanding--
	return r
}
