// Package prefetch implements the hardware prefetchers evaluated in the
// paper: the CPU baselines of Table V — a region-based stride prefetcher
// (Stride RPT), a per-PC stride prefetcher (StridePC), a stream prefetcher,
// and a GHB AC/DC delta-correlating prefetcher — plus the paper's
// contribution, the many-thread aware hardware prefetcher (MT-HWP) with
// its Per-Warp Stride, Global Stride, and Inter-thread Prefetching tables.
//
// Each baseline comes in two forms (Section VIII-A, Fig. 13): the naive
// version as originally proposed, and an "enhanced" version whose training
// state is additionally indexed by warp id, which untangles the
// interleaved per-warp address streams of Fig. 5.
//
// Prefetchers are per core. They observe demand accesses at warp
// granularity (one Train event per warp memory instruction, carrying the
// leading block address and the coalesced footprint) and emit candidate
// block addresses; the core filters candidates against the prefetch cache,
// the MRQ, and the throttle engine before issuing them.
package prefetch

import "mtprefetch/internal/memreq"

// Train is one demand observation presented to a prefetcher.
type Train struct {
	PC     int
	WarpID int    // global warp id
	Cycle  uint64 // core cycle of the observation
	Addr   uint64 // leading block address of the warp access
	// Footprint holds the byte offsets (0 included, block-aligned) of
	// every block the warp access touched relative to Addr. A generated
	// prefetch replays the same footprint at the predicted address, so
	// an uncoalesced access prefetches an uncoalesced footprint.
	Footprint []uint64
}

// Candidate is one generated prefetch: a block address plus the table
// that produced it, so downstream attribution can key outcomes by source.
type Candidate struct {
	Addr   uint64
	Source memreq.Source
}

// Prefetcher turns demand observations into prefetch candidates.
type Prefetcher interface {
	// Observe records the access and appends candidate prefetches to
	// out, returning the extended slice. The Footprint slice is only
	// valid during the call.
	Observe(t Train, out []Candidate) []Candidate
}

// Feedback carries one throttling period's prefetch outcome counters to
// feedback-directed prefetchers (GHB+F, StridePC+T — Section VIII-C).
type Feedback struct {
	Issued uint64 // prefetches sent to memory in the period
	Useful uint64 // prefetched blocks used before eviction
	Late   uint64 // prefetches a demand merged into before fill
}

// FeedbackPrefetcher is a Prefetcher that adapts to periodic feedback.
type FeedbackPrefetcher interface {
	Prefetcher
	ApplyFeedback(f Feedback)
}

// The paper's prefetch aggressiveness (Table II): every prefetcher
// targets the next stride (distance 1) with one prefetch per trigger
// (degree 1). MT-HWP's distance is the one Fig. 17 sweeps (see
// MTHWPOptions.Distance), and GHB+F adapts its degree up from Degree.
const (
	Distance = 1
	Degree   = 1
)

// maxCandidates caps how many blocks one observation may generate, keeping
// uncoalesced footprints at high degree from flooding the queue.
const maxCandidates = 64

// genStride appends candidates for a detected stride: degree triggers at
// addr + stride*(distance+i), each replaying the footprint and stamped
// with the generating table's source.
func genStride(src memreq.Source, addr uint64, stride int64, distance, degree int, footprint []uint64, out []Candidate) []Candidate {
	start := len(out)
	for i := 0; i < degree; i++ {
		base := int64(addr) + stride*int64(distance+i)
		if base <= 0 {
			continue
		}
		for _, off := range footprint {
			if len(out)-start >= maxCandidates {
				return out
			}
			out = append(out, Candidate{Addr: uint64(base) + off, Source: src})
		}
	}
	return out
}

// key2 composes a PC (or region) with a warp id into a table key.
type key2 struct {
	a int
	b int
}

// lruEntry is a node of the intrusive LRU list used by table.
type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

// table is a fixed-capacity associative table with LRU replacement — the
// building block of every prefetcher here ("both PWS and GS tables use a
// LRU replacement policy", Section III-B1).
type table[K comparable, V any] struct {
	cap  int
	m    map[K]*lruEntry[K, V]
	head *lruEntry[K, V] // most recently used
	tail *lruEntry[K, V] // least recently used
}

func newTable[K comparable, V any](capacity int) *table[K, V] {
	return &table[K, V]{cap: capacity, m: make(map[K]*lruEntry[K, V], capacity)}
}

func (t *table[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (t *table[K, V]) pushFront(e *lruEntry[K, V]) {
	e.next = t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

// get returns a pointer to the value, touching LRU on hit.
func (t *table[K, V]) get(k K) (*V, bool) {
	e, ok := t.m[k]
	if !ok {
		return nil, false
	}
	if t.head != e {
		t.unlink(e)
		t.pushFront(e)
	}
	return &e.val, true
}

// peek returns the value without touching LRU.
func (t *table[K, V]) peek(k K) (*V, bool) {
	e, ok := t.m[k]
	if !ok {
		return nil, false
	}
	return &e.val, true
}

// put inserts (or replaces) a value, evicting the LRU entry at capacity.
// It returns a pointer to the stored value and, when an eviction occurred,
// the evicted key.
func (t *table[K, V]) put(k K, v V) (*V, *K) {
	if e, ok := t.m[k]; ok {
		e.val = v
		if t.head != e {
			t.unlink(e)
			t.pushFront(e)
		}
		return &e.val, nil
	}
	var evicted *K
	if len(t.m) >= t.cap {
		victim := t.tail
		t.unlink(victim)
		delete(t.m, victim.key)
		ev := victim.key
		evicted = &ev
	}
	e := &lruEntry[K, V]{key: k, val: v}
	t.m[k] = e
	t.pushFront(e)
	return &e.val, evicted
}
