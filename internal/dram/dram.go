// Package dram models the off-chip memory system: per-channel memory
// controllers with finite request buffers, inter-core request merging
// (Fig. 2b of the paper), banks with open-row (2KB page) state, FR-FCFS
// scheduling, and a data bus sized so the aggregate peak bandwidth matches
// Table II's 57.6 GB/s. Requests a full buffer refuses wait parked per
// channel and are retried in arrival order (Offer, RetryParked).
//
// The controllers pay per event, not per cycle: each channel keeps a wake
// entry (the earliest cycle it can retire or schedule) and Step touches
// only the channels that are due; scheduled accesses retire from one
// per-channel ring in schedule order; and a retry pass runs only on a
// channel where a slot freed or a read was indexed since its last one.
//
// Demand requests have strictly higher scheduling priority than prefetch
// requests (Table II) — the property that lets 100%-accurate prefetches
// still delay demands and hurt performance (Section IV-B).
package dram

import (
	"fmt"
	"slices"

	"mtprefetch/internal/addrmap"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/ring"
	"mtprefetch/internal/simerr"
)

// Config is the memory-system geometry with timings already converted to
// core cycles (see config.DRAMCyclesToCore).
type Config struct {
	Channels   int
	Banks      int // per channel
	RowBytes   int
	BlockBytes int
	QueueSize  int // request-buffer entries per channel
	TCL        int // core cycles
	TRCD       int // core cycles
	TRP        int // core cycles
	BusCycles  int // data-bus occupancy per block, core cycles
	Overhead   int // fixed controller/DRAM-core overhead per access, core cycles

	// AgePromote prevents prefetch starvation: a prefetch that has waited
	// this many core cycles is scheduled at demand priority. Zero
	// disables promotion (strict demand-first).
	AgePromote int
}

// Stats are the memory system's lifetime counters.
type Stats struct {
	Demands         uint64 // serviced demand reads
	Prefetches      uint64 // serviced prefetch reads
	Writebacks      uint64 // serviced writes
	RowHits         uint64
	RowMisses       uint64 // row conflict: another row was open
	RowClosed       uint64 // bank was idle/closed
	InterCoreMerges uint64 // Fig. 2b merges
	Rejects         uint64 // enqueue attempts refused by a full buffer
	BusBusy         uint64 // total core cycles of data-bus occupancy
}

type entry struct {
	req    *memreq.Request
	merged []*memreq.Request
	arrive uint64
	doneAt uint64
	// bank/row are cached from bankRow at enqueue: the address never
	// changes, and the FR-FCFS rank scan reads them every cycle.
	bank int
	row  int64
}

type bank struct {
	openRow int64 // -1 = closed
	readyAt uint64
}

type channel struct {
	queue ring.Buffer[*entry] // unscheduled, arrival order
	// bus holds the scheduled entries in schedule order. Each completes
	// at the channel's new busFreeAt, which grows by at least BusCycles
	// per schedule, so doneAt strictly increases along the ring, the due
	// entries are a prefix of it, and they retire in schedule order.
	bus ring.Buffer[*entry]
	// wake is the earliest cycle the channel can act: cycle+1 while it can
	// schedule, else its earliest completion, else never.
	wake uint64
	// reads indexes the non-writeback entries of queue+bus by block
	// address for O(1) inter-core merging; merging keeps it unique.
	reads     *addrmap.Table[*entry]
	banks     []bank
	busFreeAt uint64

	// parked holds requests the full queue refused, in arrival order;
	// RetryParked re-offers them once the queue has room.
	parked []*memreq.Request
	// retry marks the channel due a retry pass: while requests were
	// parked, a schedule freed a queue slot or a read was indexed. fresh
	// lists the addresses of those reads, the only merge targets a parked
	// request can have gained since it was last refused.
	retry bool
	fresh []uint64
}

// never is the wake entry of a channel with nothing to do.
const never = ^uint64(0)

// Memory is the whole off-chip memory system.
type Memory struct {
	cfg       Config
	rowBlocks uint64
	chans     []*channel
	pool      *memreq.Pool // nil: retired writebacks are garbage-collected
	free      []*entry     // entry free-list; retirement recycles into it
	parked    int          // requests parked across all channels
	retries   int          // channels marked due a retry pass
	minWake   uint64       // minimum wake entry over the channels
	stats     Stats
}

// getEntry reuses a retired entry (and its merged backing array) when one
// is available, so steady-state enqueues stop allocating.
func (m *Memory) getEntry(r *memreq.Request, cycle uint64, b int, row int64) *entry {
	if n := len(m.free); n > 0 {
		e := m.free[n-1]
		m.free = m.free[:n-1]
		e.req, e.arrive, e.doneAt, e.bank, e.row = r, cycle, 0, b, row
		return e
	}
	return &entry{req: r, arrive: cycle, bank: b, row: row}
}

// primeMergedCap is the merged capacity carved out for each primed entry;
// mergeInto resizes the heavy mergers once (see mergeEntryCap).
const primeMergedCap = 4

// primeEntries stocks the free-list from one contiguous arena so the
// warm-up ramp — otherwise one allocation per concurrently buffered
// request — collapses into two arena allocations. n is sized to the
// request buffers' high-water mark: every channel's queue and service
// pipeline full at once.
func (m *Memory) primeEntries(n int) {
	arena := make([]entry, n)
	merged := make([]*memreq.Request, n*primeMergedCap)
	for i := range arena {
		arena[i].merged = merged[i*primeMergedCap : i*primeMergedCap : (i+1)*primeMergedCap]
		m.free = append(m.free, &arena[i])
	}
}

// putEntry recycles a retired entry. The merged slots are cleared so the
// free-list never retains requests whose lifecycle has moved on.
func (m *Memory) putEntry(e *entry) {
	for i := range e.merged {
		e.merged[i] = nil
	}
	e.merged = e.merged[:0]
	e.req = nil
	m.free = append(m.free, e)
}

// SetPool attaches a request free-list; serviced writebacks are recycled
// into it at retirement, since they carry no response back to a core.
func (m *Memory) SetPool(p *memreq.Pool) { m.pool = p }

// New builds the memory system.
func New(cfg Config) *Memory {
	m := &Memory{
		cfg:       cfg,
		rowBlocks: uint64(cfg.RowBytes / cfg.BlockBytes),
		chans:     make([]*channel, cfg.Channels),
		minWake:   never,
	}
	for i := range m.chans {
		ch := &channel{
			wake:  never,
			banks: make([]bank, cfg.Banks),
			reads: addrmap.New[*entry](cfg.QueueSize + pipelineDepth),
		}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		m.chans[i] = ch
	}
	m.primeEntries(cfg.Channels * (cfg.QueueSize + pipelineDepth))
	return m
}

// Stats returns a snapshot of the counters.
func (m *Memory) Stats() Stats { return m.stats }

// Register wires the memory system's counters into the registry. The
// DRAM system is machine-wide, so callers label it obs.CoreGlobal.
func (m *Memory) Register(r *obs.Registry, l obs.Labels) {
	st := &m.stats
	r.CounterU64("dram.demands", l, &st.Demands)
	r.CounterU64("dram.prefetches", l, &st.Prefetches)
	r.CounterU64("dram.writebacks", l, &st.Writebacks)
	r.CounterU64("dram.row_hits", l, &st.RowHits)
	r.CounterU64("dram.row_misses", l, &st.RowMisses)
	r.CounterU64("dram.row_closed", l, &st.RowClosed)
	r.CounterU64("dram.inter_core_merges", l, &st.InterCoreMerges)
	r.CounterU64("dram.rejects", l, &st.Rejects)
	r.CounterU64("dram.bus_busy", l, &st.BusBusy)
	r.Gauge("dram.queued", l, func() float64 {
		n := 0
		for _, ch := range m.chans {
			n += ch.queue.Len() + ch.bus.Len()
		}
		return float64(n)
	})
	// Per-channel unscheduled backlog: the live backpressure signal a
	// latency waterfall's dram_queue stage points at.
	for i := range m.chans {
		ch := m.chans[i]
		r.Gauge(fmt.Sprintf("dram.ch%d_queued", i), l, func() float64 {
			return float64(ch.queue.Len())
		})
	}
}

// ChannelOf maps a block address to its channel (block-interleaved).
func (m *Memory) ChannelOf(addr uint64) int {
	return int((addr / uint64(m.cfg.BlockBytes)) % uint64(m.cfg.Channels))
}

// bankRow maps an address to (bank, row) within its channel. Consecutive
// blocks in a channel fill a row before moving to the next bank, so
// streaming accesses enjoy row-buffer locality.
func (m *Memory) bankRow(addr uint64) (int, int64) {
	chanBlock := addr / uint64(m.cfg.BlockBytes) / uint64(m.cfg.Channels)
	b := int((chanBlock / m.rowBlocks) % uint64(m.cfg.Banks))
	row := int64(chanBlock / m.rowBlocks / uint64(m.cfg.Banks))
	return b, row
}

// QueueLen reports unscheduled entries queued at a channel.
func (m *Memory) QueueLen(ch int) int { return m.chans[ch].queue.Len() }

// ParkedLen reports requests parked behind a channel's full queue.
func (m *Memory) ParkedLen(ch int) int { return len(m.chans[ch].parked) }

// Parked reports requests parked behind full queues across all channels:
// the backpressure the interconnect sees.
func (m *Memory) Parked() int { return m.parked }

// Offer delivers a request to its channel at the given cycle. A request
// matching an already-buffered block merges (inter-core merging); one
// that finds the queue full is parked at the back of the channel's FIFO,
// modelling backpressure into the interconnect, counted as one reject,
// and arrives for real through RetryParked once a slot frees.
func (m *Memory) Offer(cycle uint64, r *memreq.Request) {
	ch := m.chans[m.ChannelOf(r.Addr)]
	if !m.enqueue(cycle, ch, r) {
		m.stats.Rejects++
		ch.parked = append(ch.parked, r)
		m.parked++
	}
}

// RetryParked re-offers parked requests, oldest first per channel. Call
// it once per cycle, before that cycle's arrivals and Step, so parked
// requests keep their place ahead of later traffic.
//
// Every parked request counts one reject per call it stays parked, as if
// each had been re-offered, but only a channel marked since its last pass
// pays per-request work. Each parked request was refused by a full queue
// for want of a merge target. A schedule that frees a slot marks the
// channel, and so does an accepted read enqueue, the only way the read
// index gains an entry, which also lists the address in fresh. So an
// unmarked channel's queue is still full and every request on it would
// be refused again. Likewise, once a pass fills the queue, only a request
// whose address is in fresh can still merge, and the pass stops when
// fresh is empty.
func (m *Memory) RetryParked(cycle uint64) {
	if m.parked == 0 {
		return
	}
	if m.retries > 0 {
		for _, ch := range m.chans {
			if ch.retry {
				m.retryPass(cycle, ch)
			}
		}
	}
	m.stats.Rejects += uint64(m.parked)
}

// retryPass re-offers one marked channel's parked requests and unmarks it.
func (m *Memory) retryPass(cycle uint64, ch *channel) {
	kept := ch.parked[:0]
	for i, r := range ch.parked {
		if ch.queue.Len() >= m.cfg.QueueSize {
			if len(ch.fresh) == 0 {
				kept = append(kept, ch.parked[i:]...)
				break
			}
			if !slices.Contains(ch.fresh, r.Addr) {
				kept = append(kept, r)
				continue
			}
		}
		if !m.enqueue(cycle, ch, r) {
			kept = append(kept, r)
		}
	}
	clear(ch.parked[len(kept):])
	m.parked -= len(ch.parked) - len(kept)
	ch.parked = kept
	ch.fresh = ch.fresh[:0]
	ch.retry = false
	m.retries--
}

// markRetry marks ch due a retry pass; call only while requests are
// parked on it.
func (m *Memory) markRetry(ch *channel) {
	if !ch.retry {
		ch.retry = true
		m.retries++
	}
}

// enqueue offers r to channel ch, merging or buffering it; it returns
// false when the queue is full and r cannot merge.
func (m *Memory) enqueue(cycle uint64, ch *channel, r *memreq.Request) bool {
	if r.Kind != memreq.Writeback {
		if e, ok := ch.reads.Get(r.Addr); ok {
			// The rider arrives but is never scheduled itself: its data
			// comes with the carrying entry, so its span skips the
			// scheduler and bank sites.
			r.StampSpan(memreq.SpanDRAMArrive, cycle)
			r.SpanFlag(memreq.FlagDRAMMerged)
			m.mergeInto(e, r)
			return true
		}
	}
	if ch.queue.Len() >= m.cfg.QueueSize {
		// No stamp on a reject: the request waits parked and arrives for
		// real when a slot frees.
		return false
	}
	r.StampSpan(memreq.SpanDRAMArrive, cycle)
	b, row := m.bankRow(r.Addr)
	e := m.getEntry(r, cycle, b, row)
	if r.Kind != memreq.Writeback {
		ch.reads.Put(r.Addr, e)
		if len(ch.parked) > 0 {
			ch.fresh = append(ch.fresh, r.Addr)
			m.markRetry(ch)
		}
	}
	ch.queue.Push(e)
	if ch.bus.Len() < pipelineDepth && cycle < ch.wake {
		ch.wake = cycle
		m.minWake = min(m.minWake, cycle)
	}
	return true
}

func (m *Memory) mergeInto(e *entry, r *memreq.Request) {
	m.stats.InterCoreMerges++
	// A demand merging into a buffered prefetch upgrades its priority.
	if r.Kind == memreq.Demand && e.req.Kind == memreq.Prefetch {
		e.req.DemandMerged = e.req.DemandMerged || e.req.WasPrefetch
		e.req.Kind = memreq.Demand
	}
	if len(e.merged) == cap(e.merged) {
		// Jump past append's small-capacity ladder: entries recycle
		// through the free-list for the whole run, so one right-sized
		// backing array replaces a 1-2-4-8 reallocation sequence.
		c := cap(e.merged) * 2
		if c < mergeEntryCap {
			c = mergeEntryCap
		}
		nm := make([]*memreq.Request, len(e.merged), c)
		copy(nm, e.merged)
		e.merged = nm
	}
	e.merged = append(e.merged, r)
}

// mergeEntryCap is the minimum merged capacity allocated on the first
// growth past the primed carve-out.
const mergeEntryCap = 16

// Step advances the memory system to the given cycle: on each channel
// that is due it completes finished accesses (appending every satisfied
// request, including merged ones, to done) and schedules a new access.
// Writebacks complete silently and are not appended. The extended done
// slice is returned.
func (m *Memory) Step(cycle uint64, done []*memreq.Request) []*memreq.Request {
	if cycle < m.minWake {
		return done
	}
	next := never
	for _, ch := range m.chans {
		if ch.wake <= cycle {
			done = m.stepChannel(cycle, ch, done)
		}
		next = min(next, ch.wake)
	}
	m.minWake = next
	return done
}

// pipelineDepth bounds how many scheduled accesses a channel may hold.
// It must cover the fixed access-latency window (Overhead/BusCycles deep)
// or the data bus can never saturate; 32 covers the baseline comfortably
// while keeping FR-FCFS decisions reasonably late.
const pipelineDepth = 32

func (m *Memory) stepChannel(cycle uint64, ch *channel, done []*memreq.Request) []*memreq.Request {
	// Retire the due prefix of the ring, in schedule order.
	for e, ok := ch.bus.Front(); ok && e.doneAt <= cycle; e, ok = ch.bus.Front() {
		ch.bus.Pop()
		if e.req.Kind != memreq.Writeback {
			ch.reads.Del(e.req.Addr)
			e.req.StampSpan(memreq.SpanDRAMDone, cycle)
			done = append(done, e.req)
		} else {
			m.pool.Put(e.req)
		}
		// Merged entries never hold writebacks (enqueue only merges reads).
		for _, mr := range e.merged {
			mr.StampSpan(memreq.SpanDRAMDone, cycle)
		}
		done = append(done, e.merged...)
		m.putEntry(e)
	}
	// Schedule at most one new access per call while the pipeline has room.
	if ch.queue.Len() > 0 && ch.bus.Len() < pipelineDepth {
		m.schedule(cycle, ch)
		if ch.queue.Len() > 0 && ch.bus.Len() < pipelineDepth {
			ch.wake = cycle + 1
			return done
		}
	}
	ch.wake = never
	if e, ok := ch.bus.Front(); ok {
		ch.wake = e.doneAt
	}
	return done
}

// schedule picks the next access by FR-FCFS with demand priority and
// starts it. An entry's rank is (row miss) + 2*(not demand), lower first,
// ties oldest-first; a prefetch that arrived before cut has waited longer
// than AgePromote and ranks as a demand.
func (m *Memory) schedule(cycle uint64, ch *channel) {
	var cut uint64
	if ap := uint64(m.cfg.AgePromote); ap > 0 && cycle > ap {
		cut = cycle - ap
	}
	best, bestRank := 0, 4
	for i := 0; i < ch.queue.Len(); i++ {
		e := ch.queue.At(i)
		rank := 0
		if ch.banks[e.bank].openRow != e.row {
			rank = 1
		}
		if e.req.Kind != memreq.Demand && e.arrive >= cut {
			rank += 2
		}
		if rank < bestRank {
			best, bestRank = i, rank
			if rank == 0 {
				break
			}
		}
	}
	e := ch.queue.RemoveAt(best)
	if len(ch.parked) > 0 {
		m.markRetry(ch)
	}
	e.req.StampSpan(memreq.SpanDRAMSched, cycle)
	m.service(cycle, ch, e)
	ch.bus.Push(e)
}

func (m *Memory) service(cycle uint64, ch *channel, e *entry) {
	row := e.row
	bk := &ch.banks[e.bank]
	start := cycle
	if bk.readyAt > start {
		start = bk.readyAt
	}
	e.req.StampSpan(memreq.SpanDRAMActivate, start)
	var access int
	switch {
	case bk.openRow == row:
		access = m.cfg.TCL
		m.stats.RowHits++
		e.req.SpanFlag(memreq.FlagRowHit)
	case bk.openRow == -1:
		access = m.cfg.TRCD + m.cfg.TCL
		m.stats.RowClosed++
		e.req.SpanFlag(memreq.FlagRowClosed)
	default:
		access = m.cfg.TRP + m.cfg.TRCD + m.cfg.TCL
		m.stats.RowMisses++
		e.req.SpanFlag(memreq.FlagRowMiss)
	}
	bk.openRow = row
	bankDone := start + uint64(access)
	// The fixed overhead is pipeline latency (controller, command queues,
	// DRAM core), not occupancy: it delays the data without blocking the
	// bank or the bus.
	dataReady := bankDone + uint64(m.cfg.Overhead)
	busStart := dataReady
	if ch.busFreeAt > busStart {
		busStart = ch.busFreeAt
	}
	busDone := busStart + uint64(m.cfg.BusCycles)
	ch.busFreeAt = busDone
	bk.readyAt = bankDone
	e.doneAt = busDone
	m.stats.BusBusy += uint64(m.cfg.BusCycles)
	switch e.req.Kind {
	case memreq.Demand:
		m.stats.Demands++
	case memreq.Prefetch:
		m.stats.Prefetches++
	case memreq.Writeback:
		m.stats.Writebacks++
	}
}

// NextEvent reports the next cycle at which the memory system will act:
// cycle+1 while any request is parked (every retry attempt is counted in
// Stats.Rejects, so each cycle's RetryParked must run), otherwise the
// minimum wake entry over the channels. A channel's entry is cycle+1
// while it can schedule (queue occupied with pipeline room — FR-FCFS
// ranking and age promotion are cycle-dependent, so every
// scheduling-opportunity cycle must be visited), otherwise its earliest
// in-flight completion. The maximum uint64 when fully drained. Part of
// the event-driven cycle-skipping contract (see core.Run).
func (m *Memory) NextEvent(cycle uint64) uint64 {
	if m.parked > 0 {
		return cycle + 1
	}
	return m.minWake
}

// Drained reports whether no requests remain anywhere in the memory
// system, parked ones included.
func (m *Memory) Drained() bool {
	if m.parked > 0 {
		return false
	}
	for _, ch := range m.chans {
		if ch.queue.Len() > 0 || ch.bus.Len() > 0 {
			return false
		}
	}
	return true
}

// CheckInvariants verifies the memory system's bookkeeping
// (core.Options.Checks): the parked count matches the per-channel FIFOs,
// every queue and service pipeline respects its bound, the read index
// covers exactly the buffered reads, and each parked request waits on
// its own channel and nowhere else. It also checks the per-event
// bookkeeping: doneAt strictly increases along each completion ring, no
// channel can act before its wake entry, the memory's minimum wake is its
// channels', and the retry marks are counted and set wherever a pass
// could find work.
func (m *Memory) CheckInvariants(cycle uint64) error {
	fail := func(name, format string, args ...any) error {
		return &simerr.InvariantError{Component: "dram", Name: name, Cycle: cycle,
			Detail: fmt.Sprintf(format, args...)}
	}
	parked := 0
	for _, ch := range m.chans {
		parked += len(ch.parked)
	}
	if parked != m.parked {
		return fail("parked-count", "Parked() = %d but the channel FIFOs hold %d", m.parked, parked)
	}
	seen := make(map[*memreq.Request]bool)
	marked, minWake := 0, never
	for i, ch := range m.chans {
		if n := ch.queue.Len(); n > m.cfg.QueueSize {
			return fail("queue-bound", "channel %d queues %d entries, capacity %d", i, n, m.cfg.QueueSize)
		}
		if n := ch.bus.Len(); n > pipelineDepth {
			return fail("pipeline-bound", "channel %d has %d accesses in flight, depth %d", i, n, pipelineDepth)
		}
		clear(seen)
		var buffered []*entry
		for _, rg := range []*ring.Buffer[*entry]{&ch.bus, &ch.queue} {
			for j := 0; j < rg.Len(); j++ {
				buffered = append(buffered, rg.At(j))
			}
		}
		reads := 0
		for _, e := range buffered {
			seen[e.req] = true
			for _, r := range e.merged {
				seen[r] = true
			}
			if e.req.Kind == memreq.Writeback {
				continue
			}
			reads++
			if got, ok := ch.reads.Get(e.req.Addr); !ok || got != e {
				return fail("read-index", "channel %d buffers read %#x but does not index it", i, e.req.Addr)
			}
		}
		if n := ch.reads.Len(); n != reads {
			return fail("read-index", "channel %d indexes %d reads but buffers %d", i, n, reads)
		}
		for _, r := range ch.parked {
			if seen[r] {
				return fail("parked-exclusive", "channel %d: parked request %#x is also buffered or parked twice", i, r.Addr)
			}
			seen[r] = true
			if c := m.ChannelOf(r.Addr); c != i {
				return fail("parked-channel", "request %#x parked at channel %d, maps to %d", r.Addr, i, c)
			}
		}
		earliest := never
		for j := 0; j < ch.bus.Len(); j++ {
			e := ch.bus.At(j)
			if j > 0 && e.doneAt <= ch.bus.At(j-1).doneAt {
				return fail("ring-order", "channel %d: ring entry %d completes at %d, its predecessor at %d",
					i, j, e.doneAt, ch.bus.At(j-1).doneAt)
			}
			earliest = min(earliest, e.doneAt)
		}
		if ch.queue.Len() > 0 && ch.bus.Len() < pipelineDepth {
			earliest = min(earliest, cycle+1)
		}
		// Called after Step(cycle): the channel next acts at cycle+1 at
		// the earliest, even for an access that completes at cycle.
		earliest = max(earliest, cycle+1)
		if ch.wake > earliest {
			return fail("wake-entry", "channel %d can act at cycle %d but wakes at %d", i, earliest, ch.wake)
		}
		minWake = min(minWake, ch.wake)
		switch {
		case ch.retry && len(ch.parked) == 0:
			return fail("retry-mark", "channel %d is marked for a retry pass with nothing parked", i)
		case ch.retry:
			marked++
		case len(ch.parked) > 0 && (ch.queue.Len() < m.cfg.QueueSize || len(ch.fresh) > 0):
			return fail("retry-mark", "channel %d parks %d requests beside a free slot or a fresh read but is not marked",
				i, len(ch.parked))
		}
	}
	if marked != m.retries {
		return fail("retry-count", "%d channels counted as marked, %d flags set", m.retries, marked)
	}
	if minWake != m.minWake {
		return fail("wake-min", "minimum wake %d, channels' minimum %d", m.minWake, minWake)
	}
	return nil
}
