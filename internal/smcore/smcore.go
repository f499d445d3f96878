// Package smcore models one SIMT core (an SM): an in-order scheduler that
// issues warp-instructions with per-class occupancy (4 cycles for the
// common case — 32-thread warps over 8-wide SIMD — 16 for IMUL, 32 for
// FDIV), per-warp register scoreboards allowing multiple outstanding loads
// per warp, a block scheduler honouring the occupancy limit, the per-core
// MRQ, the prefetch cache, the hardware prefetcher, and the throttle
// engine (Fig. 9).
package smcore

import (
	"fmt"
	"math"
	"math/bits"

	"mtprefetch/internal/cache"
	"mtprefetch/internal/config"
	"mtprefetch/internal/kernel"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/mrq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/simerr"
	"mtprefetch/internal/stats"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/throttle"
	"mtprefetch/internal/workload"
)

// BlockSource dispenses thread-block ids to cores; the simulator shares
// one across all cores.
type BlockSource interface {
	// NextBlock returns the next block id, or ok=false when the grid is
	// exhausted.
	NextBlock() (int, bool)
}

// Stats are one core's lifetime counters.
type Stats struct {
	Instructions     uint64 // all issued warp-instructions
	ProgInstructions uint64 // excluding prefetch instructions
	ComputeInstrs    uint64
	MemInstrs        uint64 // demand loads + stores
	PrefetchInstrs   uint64 // software prefetch instructions issued

	DemandTransactions     uint64 // demand block transactions generated
	PFCacheHitTransactions uint64 // of those, served by the prefetch cache

	PrefetchesGenerated uint64 // candidates from SW instrs + HW prefetcher
	PrefetchesIssued    uint64 // accepted into the MRQ as new entries
	PrefetchMergedMRQ   uint64 // candidates merged into outstanding entries
	DroppedThrottle     uint64
	DroppedInCache      uint64
	DroppedQueueFull    uint64

	LatePrefetches uint64 // fills whose prefetch had a demand merged in
	DemandLatency  stats.Latency

	IssueStallFullMRQ uint64 // capacity-stalled issue attempts, one per warp per wake window
	BlocksCompleted   uint64
	WarpsCompleted    uint64
}

// txMemo is one warp slot's memoized coalescing result for the
// instruction at (pc, iter), plus how many of txs[:scanned] the prefetch
// cache did not hold at cache generation missGen. Each transaction's
// residency depends only on the cache's resident set, so the partial
// count stays exact while neither the set nor the generation changes: a
// new set clears missOK, and the generation moves with every insert or
// invalidation (cache.Gen). The txs backing array is reused across
// instructions.
type txMemo struct {
	txs      []uint64
	pc, iter int32
	valid    bool
	missOK   bool
	misses   int
	scanned  int
	missGen  uint64
}

type blockState struct {
	active    bool
	remaining int // unfinished warps
}

// Core is one SM.
type Core struct {
	id   int
	cfg  *config.Config
	spec *workload.Spec
	prog *kernel.Program

	// Warp state lives in a struct-of-arrays layout, indexed by warp
	// slot: the scheduler's bitmask scan and the fill path each touch
	// one or two of these fields for many warps per event, so parallel
	// flat slices keep those walks on contiguous memory instead of
	// striding across fat per-warp structs.
	numWarps  int
	wActive   []bool
	wDone     []bool
	wGwid     []int32 // global warp id
	wPC       []int32
	wIter     []int32
	wRemTrips []int32
	wOutstand []int32 // total outstanding fills
	wBlock    []int32 // resident-block slot the warp belongs to

	// Flat scoreboard: pending fills per register, slot*numRegs+reg.
	pending []uint16
	numRegs int

	// Per-slot memo of the current memory instruction's transactions,
	// so a warp stalled on MRQ space redoes neither coalescing nor
	// prefetch-cache lookups on every retry.
	memo []txMemo

	blocks    []blockState
	src       BlockSource
	liveWarps int

	MRQ     *mrq.Queue
	PFCache *cache.Cache
	HWP     prefetch.Prefetcher
	Throt   *throttle.Engine

	trace *obs.Tracer   // nil: event tracing disabled
	pf    *obs.PFReport // nil: prefetch attribution disabled
	cpi   *obs.CoreCPI  // nil: cycle accounting disabled
	spans *obs.SpanSet  // nil: request span tracing disabled

	// spanSeq numbers every candidate request (demand or prefetch) this
	// core creates, in issue order. It feeds the deterministic span
	// sampling hash and advances only while spans are enabled, so the
	// spans-off issue path pays a single nil check.
	spanSeq uint64

	// Cycle-accounting stall cause: stallMRQ counts warps stalled on MRQ
	// capacity since the last wake (the capacity stall can only clear at
	// a wake, so the count stays truthful for the whole stall window).
	stallMRQ int

	perfectMem bool
	periodic   bool // throttle engine or feedback prefetcher present

	issueBusyUntil uint64
	rr             int // scan start: the warp that issued last (switch-on-stall)

	// acct is the first cycle not yet attributed to a CPI bucket (only
	// maintained with cycle accounting on). The simulator steps a core
	// only on cycles it can act, so the cycles in between are attributed
	// in bulk when the core is next touched (AccountTo).
	acct uint64

	// Warp issue index: activeMask has a bit per resident warp still
	// executing its program (active and not done); issueMask is the
	// subset not stalled since the last memory event, ghosts included.
	// Cycle scans only issueMask, so done and stalled warps cost nothing
	// per tick. Both stall causes (scoreboard and MRQ capacity) can only
	// clear when a fill returns or an MRQ slot frees — the events that
	// call wake and reset issueMask to activeMask.
	activeMask  []uint64
	issueMask   []uint64
	activeCount int // set bits in activeMask
	issuable    int // set bits in issueMask

	// Stall-cause parking, so a wake retries only the warps whose stall
	// it can clear. parkSB holds the warps whose last failed attempt was
	// a scoreboard stall and that no fill has named as a waiter since;
	// parkMRQ those whose last failed attempt was an MRQ capacity stall.
	// ghost is the subset of issueMask certain to fail if tried now: the
	// scan passes ghosts without trying them and charges them what their
	// failed tries would have (passGhosts). mrqNeed is a lower bound on
	// the MRQ room the smallest parked capacity stall needs (noNeed while
	// parkMRQ is empty), counted at prefetch-cache generation mrqGen.
	// The five masks share one allocation.
	ghost   []uint64
	parkSB  []uint64
	parkMRQ []uint64
	mrqNeed int
	mrqGen  uint64

	pool *memreq.Pool // request free-list (nil: plain allocation)

	// Throttle-period snapshots.
	nextPeriod uint64
	lastCache  cache.Stats
	lastMRQ    mrq.Stats
	lastIssued uint64
	lastLate   uint64

	// Scratch buffers reused across cycles.
	txBuf   []uint64
	candBuf []prefetch.Candidate
	footBuf []uint64

	stats Stats
}

// Options configures a core.
type Options struct {
	ID         int
	Config     *config.Config
	Spec       *workload.Spec
	Blocks     BlockSource
	HWP        prefetch.Prefetcher // nil: no hardware prefetching
	Throttle   *throttle.Engine    // nil: no adaptive throttling
	PerfectMem bool                // loads complete instantly (PMEM runs)
	Pool       *memreq.Pool        // nil: requests are plainly allocated
}

// New builds a core and fills it with blocks up to the occupancy limit.
func New(o Options) (*Core, error) {
	prog := o.Spec.Program
	if prog.NumRegs > kernel.MaxReg+1 {
		return nil, fmt.Errorf("smcore: program uses %d registers", prog.NumRegs)
	}
	wpb := o.Spec.WarpsPerBlock()
	maxBlocks := o.Spec.MaxBlocksPerCore
	numWarps := maxBlocks * wpb
	c := &Core{
		id:         o.ID,
		cfg:        o.Config,
		spec:       o.Spec,
		prog:       prog,
		numWarps:   numWarps,
		wActive:    make([]bool, numWarps),
		wDone:      make([]bool, numWarps),
		wGwid:      make([]int32, numWarps),
		wPC:        make([]int32, numWarps),
		wIter:      make([]int32, numWarps),
		wRemTrips:  make([]int32, numWarps),
		wOutstand:  make([]int32, numWarps),
		wBlock:     make([]int32, numWarps),
		pending:    make([]uint16, numWarps*prog.NumRegs),
		numRegs:    prog.NumRegs,
		memo:       make([]txMemo, numWarps),
		blocks:     make([]blockState, maxBlocks),
		src:        o.Blocks,
		MRQ:        mrq.New(o.Config.MRQSize),
		PFCache:    cache.New(o.Config.PrefetchCacheBytes, config.PrefetchCacheWays, config.BlockBytes),
		HWP:        o.HWP,
		Throt:      o.Throttle,
		perfectMem: o.PerfectMem,
		nextPeriod: o.Config.ThrottlePeriod,
		pool:       o.Pool,
	}
	words := (numWarps + 63) / 64
	masks := make([]uint64, 5*words)
	c.activeMask = masks[:words:words]
	c.issueMask = masks[words : 2*words : 2*words]
	c.ghost = masks[2*words : 3*words : 3*words]
	c.parkSB = masks[3*words : 4*words : 4*words]
	c.parkMRQ = masks[4*words:]
	c.mrqNeed = noNeed
	if _, ok := o.HWP.(prefetch.FeedbackPrefetcher); ok || o.Throttle != nil {
		c.periodic = true
	}
	for b := range c.blocks {
		c.tryLaunchBlock(b)
	}
	return c, nil
}

// cpiCounterNames pre-builds the per-bucket registry names once, so the
// 14 cores' Observe calls don't re-concatenate them.
var cpiCounterNames = func() [obs.NumBuckets]string {
	var names [obs.NumBuckets]string
	for b := obs.Bucket(0); b < obs.NumBuckets; b++ {
		names[b] = "smcore.cpi_" + b.String()
	}
	return names
}()

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// ID returns the core's index in the machine.
func (c *Core) ID() int { return c.id }

// Observe attaches the observability layer: the core's own counters and
// those of its sub-components (prefetch cache, MRQ, throttle engine,
// MT-HWP tables) register into reg, and structured events are emitted
// into tr. Both may be nil; registration is free on the hot path either
// way, since the registry reads the counters through pointers when it
// is sampled.
func (c *Core) Observe(reg *obs.Registry, tr *obs.Tracer) {
	c.trace = tr
	l := obs.Labels{Core: c.id, Component: "smcore"}
	st := &c.stats
	reg.CounterU64("smcore.instructions", l, &st.Instructions)
	reg.CounterU64("smcore.prog_instructions", l, &st.ProgInstructions)
	reg.CounterU64("smcore.compute_instrs", l, &st.ComputeInstrs)
	reg.CounterU64("smcore.mem_instrs", l, &st.MemInstrs)
	reg.CounterU64("smcore.prefetch_instrs", l, &st.PrefetchInstrs)
	reg.CounterU64("smcore.demand_transactions", l, &st.DemandTransactions)
	reg.CounterU64("smcore.pfcache_hit_transactions", l, &st.PFCacheHitTransactions)
	reg.CounterU64("smcore.prefetches_generated", l, &st.PrefetchesGenerated)
	reg.CounterU64("smcore.prefetches_issued", l, &st.PrefetchesIssued)
	reg.CounterU64("smcore.prefetch_merged_mrq", l, &st.PrefetchMergedMRQ)
	reg.CounterU64("smcore.dropped_throttle", l, &st.DroppedThrottle)
	reg.CounterU64("smcore.dropped_in_cache", l, &st.DroppedInCache)
	reg.CounterU64("smcore.dropped_queue_full", l, &st.DroppedQueueFull)
	reg.CounterU64("smcore.late_prefetches", l, &st.LatePrefetches)
	reg.CounterU64("smcore.issue_stall_full_mrq", l, &st.IssueStallFullMRQ)
	reg.CounterU64("smcore.blocks_completed", l, &st.BlocksCompleted)
	reg.CounterU64("smcore.warps_completed", l, &st.WarpsCompleted)
	reg.Histogram("smcore.demand_latency", l, func() stats.Histogram { return st.DemandLatency.Histogram })
	reg.Gauge("smcore.live_warps", l, func() float64 { return float64(c.liveWarps) })
	if c.cpi != nil {
		cb := c.cpi
		for b := obs.Bucket(0); b < obs.NumBuckets; b++ {
			reg.CounterU64(cpiCounterNames[b], l, &cb.Buckets[b])
		}
	}

	c.PFCache.Register(reg, obs.Labels{Core: c.id, Component: "pfcache"})
	c.MRQ.Register(reg, obs.Labels{Core: c.id, Component: "mrq"})
	if c.Throt != nil {
		c.Throt.Register(reg, obs.Labels{Core: c.id, Component: "throttle"})
	}
	if mt, ok := c.HWP.(*prefetch.MTHWP); ok {
		mt.Register(reg, obs.Labels{Core: c.id, Component: "mthwp"})
		mt.SetTrace(tr, c.id)
	}
}

// AttachPFReport enables prefetch provenance attribution on the core and
// its classification sites (prefetch cache, MRQ). With no report attached
// the issue and fill paths skip all attribution work.
func (c *Core) AttachPFReport(p *obs.PFReport) {
	if p == nil {
		return
	}
	c.pf = p
	c.PFCache.SetPFReport(p)
	c.MRQ.SetPFReport(p)
}

// AttachCPI enables cycle accounting: with a bucket set attached, every
// cycle is attributed to exactly one bucket — by Cycle for the cycle it
// steps, and by AccountTo for the cycles the core was not stepped. Must
// be attached before Observe so the per-bucket registry counters appear. A nil argument leaves
// accounting off and the issue path pays only nil checks.
func (c *Core) AttachCPI(b *obs.CoreCPI) { c.cpi = b }

// AttachSpans enables request span tracing: every demand and prefetch
// request the core creates runs the deterministic sampling decision,
// and the sampled ones carry lifecycle stamp records from issue to
// their terminal. A nil argument leaves span tracing off and the request
// paths pay only nil checks.
func (c *Core) AttachSpans(ss *obs.SpanSet) { c.spans = ss }

// startSpan runs the span sampling decision for a just-created request.
func (c *Core) startSpan(r *memreq.Request, cycle uint64) {
	if c.spans == nil {
		return
	}
	c.spanSeq++
	c.spans.Start(r, c.spanSeq, cycle)
}

// stallBucket classifies a non-issuing cycle by the core's current stall
// cause, read off the issue-index state (see the activeMask/issueMask
// comment): no resident executing warp means the grid drained here
// (idle) or warps are done but fills are outstanding (drain); otherwise
// executing warps exist but all are stalled — on MRQ capacity if any
// warp in this wake-window stalled there, else on the scoreboard.
func (c *Core) stallBucket() obs.Bucket {
	if c.activeCount == 0 {
		if c.liveWarps > 0 {
			return obs.BucketDrain
		}
		return obs.BucketIdle
	}
	if c.stallMRQ > 0 {
		return obs.BucketMRQFull
	}
	return obs.BucketScoreboard
}

// AccountTo attributes every cycle from the first unattributed one up to
// (not including) to, exactly as stepping the core through them would
// have: cycles still inside the current issue occupancy are issued
// bandwidth, the rest take the current stall bucket. That is exact
// because the core's state is frozen between the cycles it is stepped:
// with issue-eligible warps it is stepped no later than issueBusyUntil
// (NextEvent), and the only other changes — a fill, a freed MRQ slot —
// call AccountTo before they apply. A no-op without cycle accounting.
func (c *Core) AccountTo(to uint64) {
	if c.cpi == nil || to <= c.acct {
		return
	}
	from := c.acct
	c.acct = to
	if busy := c.issueBusyUntil; busy > from {
		if busy > to {
			busy = to
		}
		c.cpi.Buckets[obs.BucketIssued] += busy - from
		from = busy
	}
	if to > from {
		c.cpi.Buckets[c.stallBucket()] += to - from
	}
}

// AccountExternalStall attributes cycle, in which the issue stage was
// externally suppressed (a fault injector holding the core), to the
// throttled bucket, keeping conservation exact under fault injection.
func (c *Core) AccountExternalStall(cycle uint64) {
	if c.cpi != nil {
		c.AccountTo(cycle)
		c.cpi.Buckets[obs.BucketThrottled]++
		c.acct = cycle + 1
	}
}

// Tolerance snapshots the core's latency-tolerance signals at cycle: how
// many warps remain to switch to, how much MRQ/MSHR headroom is left to
// issue into, and how long the oldest outstanding fill has been in
// flight. Sampled at CPI-stack epoch boundaries, not per cycle.
func (c *Core) Tolerance(cycle uint64) obs.Tolerance {
	out := c.MRQ.Outstanding()
	t := obs.Tolerance{
		Core:           c.id,
		ReadyWarps:     c.issuable,
		ActiveWarps:    c.activeCount,
		LiveWarps:      c.liveWarps,
		MRQOutstanding: out,
		MRQFree:        c.MRQ.Capacity() - out,
	}
	if oldest, ok := c.MRQ.OldestIssueCycle(); ok && cycle > oldest {
		t.OldestFillAge = cycle - oldest
	}
	return t
}

// tryLaunchBlock fills block slot b with a fresh thread block if any.
func (c *Core) tryLaunchBlock(b int) {
	blockID, ok := c.src.NextBlock()
	if !ok {
		return
	}
	wpb := c.spec.WarpsPerBlock()
	c.blocks[b] = blockState{active: true, remaining: wpb}
	for i := 0; i < wpb; i++ {
		slot := b*wpb + i
		c.wActive[slot] = true
		c.wDone[slot] = false
		c.wGwid[slot] = int32(blockID*wpb + i)
		c.wPC[slot] = 0
		c.wIter[slot] = 0
		c.wRemTrips[slot] = int32(c.prog.LoopTrips)
		c.wOutstand[slot] = 0
		c.wBlock[slot] = int32(b)
		// The new warp may start at the (pc, iter) its predecessor ended
		// on, but its addresses differ.
		c.memo[slot].valid, c.memo[slot].missOK = false, false
		clear(c.pending[slot*c.numRegs : (slot+1)*c.numRegs])
		c.liveWarps++
		c.activateWarp(slot)
	}
}

// noNeed is mrqNeed while no warp is parked on MRQ capacity.
const noNeed = math.MaxInt

// wake makes every executing warp eligible for the issue scan again.
// Called at the end of a fill and when a writeback leaves the MRQ — the
// only events that can clear a scoreboard or capacity stall. Parked
// warps whose stall the event cannot have cleared become ghosts: the
// scan passes them exactly as it would fail them.
func (c *Core) wake() {
	copy(c.issueMask, c.activeMask)
	c.issuable = c.activeCount
	c.stallMRQ = 0
	c.releaseMRQ()
	for i, a := range c.activeMask {
		c.ghost[i] = (c.parkSB[i] | c.parkMRQ[i]) & a
	}
}

// releaseMRQ unparks every capacity-stalled warp once one of them may
// fit: the MRQ has the room the smallest parked access needs, or the
// prefetch cache's resident set changed since the needs were counted.
// Otherwise every parked access still needs more room than there is.
func (c *Core) releaseMRQ() {
	if c.mrqNeed == noNeed ||
		c.demandCap()-c.MRQ.Outstanding() < c.mrqNeed && c.PFCache.Gen() == c.mrqGen {
		return
	}
	clear(c.parkMRQ)
	c.mrqNeed = noNeed
}

// parkMRQWarp records a capacity stall of the warp in slot whose access
// needs at least need free MRQ entries at the current cache generation.
func (c *Core) parkMRQWarp(slot, need int) {
	c.parkMRQ[slot>>6] |= 1 << (uint(slot) & 63)
	c.mrqNeed = min(c.mrqNeed, need)
	c.mrqGen = c.PFCache.Gen()
}

// activateWarp enters a freshly launched warp into the issue index,
// clearing whatever its slot's previous warp left parked.
func (c *Core) activateWarp(slot int) {
	bit := uint64(1) << (uint(slot) & 63)
	w := slot >> 6
	c.activeMask[w] |= bit
	c.issueMask[w] |= bit
	c.parkSB[w] &^= bit
	c.parkMRQ[w] &^= bit
	c.ghost[w] &^= bit
	c.activeCount++
	c.issuable++
}

// stallWarp drops a warp from the issue scan until the next wake.
func (c *Core) stallWarp(slot int) {
	c.issueMask[slot>>6] &^= 1 << (uint(slot) & 63)
	c.issuable--
}

// warpDone removes a finished warp from the issue index. The caller
// guarantees the warp's issue bit is set (it just issued its final
// instruction, so the scan found it in issueMask).
func (c *Core) warpDone(slot int) {
	bit := uint64(1) << (uint(slot) & 63)
	c.activeMask[slot>>6] &^= bit
	c.issueMask[slot>>6] &^= bit
	c.ghost[slot>>6] &^= bit
	c.activeCount--
	c.issuable--
}

// Idle reports whether the core has no resident work and no outstanding
// memory requests.
func (c *Core) Idle() bool {
	return c.liveWarps == 0 && c.MRQ.Outstanding() == 0
}

// NextSend exposes the oldest unsent MRQ request for NOC injection.
func (c *Core) NextSend() *memreq.Request { return c.MRQ.NextSend() }

// PopSend removes it after a successful injection at cycle, which comes
// after the cycle's issue step. Popping a writeback frees its MRQ slot,
// so stalled warps become eligible again.
func (c *Core) PopSend(cycle uint64) *memreq.Request {
	r := c.MRQ.PopSend()
	if r != nil && r.Kind == memreq.Writeback {
		c.AccountTo(cycle + 1)
		c.wake()
	}
	return r
}

// Fill delivers a returned memory response to the core at cycle, before
// the cycle's issue step. The wake comes last, once the waiters are
// released, the blocks launched and the prefetch cache filled, so that
// it sees the room and the resident set the fill leaves behind.
func (c *Core) Fill(cycle uint64, r *memreq.Request) {
	c.AccountTo(cycle)
	// The delivered request reaches its terminal here even when its MRQ
	// entry is already gone (inter-core merge leftovers below).
	r.StampSpan(memreq.SpanFill, cycle)
	c.spans.Finish(r, cycle, memreq.TermFill)
	entry := c.MRQ.Complete(r.Addr)
	if entry == nil {
		// The response belongs to a request merged away inter-core; the
		// surviving entry for this core already completed or never
		// existed. Nothing changed, but the fill still wakes.
		c.wake()
		return
	}
	if entry.Kind == memreq.Demand || len(entry.Waiters) > 0 {
		c.stats.DemandLatency.Add(cycle - entry.IssueCycle)
	}
	for _, w := range entry.Waiters {
		slot := int(w.Warp)
		if p := &c.pending[slot*c.numRegs+int(w.Reg)]; *p > 0 {
			*p--
			if *p == 0 {
				// The register is free, which may clear the warp's
				// scoreboard stall; a fill leaving it pending cannot.
				c.parkSB[slot>>6] &^= 1 << (uint(slot) & 63)
			}
		}
		if c.wOutstand[slot] > 0 {
			c.wOutstand[slot]--
		}
		c.maybeRetire(slot)
	}
	if entry.WasPrefetch {
		if entry.DemandMerged {
			c.stats.LatePrefetches++
			entry.Outcome = memreq.OutLate
			if c.pf != nil {
				c.pf.Record(entry.Prov, memreq.OutLate)
			}
			// Late prefetch: the data still lands in the prefetch cache,
			// already used.
			c.PFCache.FillProv(entry.Addr, true, entry.Prov)
			if c.trace != nil {
				c.trace.Emit(obs.EvLatePrefetch, cycle, c.id, entry.Addr, int64(entry.PC))
			}
		} else {
			early, victim := c.PFCache.FillProv(entry.Addr, false, entry.Prov)
			if early && c.trace != nil {
				c.trace.Emit(obs.EvEarlyEviction, cycle, c.id, victim, 0)
			}
		}
	}
	c.wake()
}

// DropFill releases the MRQ entry for a response without waking its
// waiters or filling the prefetch cache — a deliberately injected lost
// completion (internal/faults) that the scoreboard-balance invariant is
// designed to catch. Production code never calls it. The freed entry
// may let a capacity ghost fit, so those ghosts are released to be
// tried as they would be without parking.
func (c *Core) DropFill(r *memreq.Request) {
	c.MRQ.Complete(r.Addr)
	c.releaseMRQ()
	for i := range c.ghost {
		c.ghost[i] &= c.parkSB[i] | c.parkMRQ[i]
	}
}

// Diag is one core's diagnostic snapshot, for livelock reports and crash
// dumps (core.DiagSnapshot).
type Diag struct {
	Core           int `json:"core"`
	LiveWarps      int `json:"live_warps"`
	ActiveWarps    int `json:"active_warps"`    // resident, still executing
	DrainingWarps  int `json:"draining_warps"`  // program done, fills outstanding
	StalledWarps   int `json:"stalled_warps"`   // active but stalled since the last memory event
	MRQOutstanding int `json:"mrq_outstanding"` // occupied MRQ/MSHR entries
	MRQUnsent      int `json:"mrq_unsent"`      // accepted but not yet injected
	PFCacheLines   int `json:"pfcache_lines"`   // resident prefetch-cache blocks
	ThrottleDegree int `json:"throttle_degree"` // 0 when throttling is off
}

// Diag captures the core's current state.
func (c *Core) Diag() Diag {
	d := Diag{
		Core:           c.id,
		LiveWarps:      c.liveWarps,
		MRQOutstanding: c.MRQ.Outstanding(),
		MRQUnsent:      c.MRQ.SendQueueLen(),
		PFCacheLines:   c.PFCache.Occupancy(),
	}
	for i := 0; i < c.numWarps; i++ {
		if !c.wActive[i] {
			continue
		}
		if c.wDone[i] {
			d.DrainingWarps++
			continue
		}
		d.ActiveWarps++
		if c.issueMask[i>>6]&(1<<(uint(i)&63)) == 0 {
			d.StalledWarps++
		}
	}
	if c.Throt != nil {
		d.ThrottleDegree = c.Throt.Degree()
	}
	return d
}

// CheckInvariants verifies the core's conservation properties between
// cycles, when the machine is in a consistent state (core.Options.Checks):
// the MRQ's entry accounting, the prefetch cache's line accounting, the
// scoreboard release balance — every fill a warp waits on must be
// backed by a waiter on an in-flight MRQ entry and vice versa, so a
// completion that frees an entry without waking its waiters (or a double
// wake) is caught here — and the stall-cause parking (checkParking).
func (c *Core) CheckInvariants(cycle uint64) error {
	if err := c.MRQ.CheckInvariants(cycle, c.id); err != nil {
		return err
	}
	if err := c.PFCache.CheckInvariants(cycle, c.id); err != nil {
		return err
	}
	warpOut, regPending := 0, 0
	active, issuable := 0, 0
	for i := 0; i < c.numWarps; i++ {
		bit := uint64(1) << (uint(i) & 63)
		abit := c.activeMask[i>>6]&bit != 0
		ibit := c.issueMask[i>>6]&bit != 0
		if abit != (c.wActive[i] && !c.wDone[i]) || (ibit && !abit) {
			return &simerr.InvariantError{
				Component: "smcore", Name: "warp-index", Cycle: cycle,
				Detail: fmt.Sprintf("core %d warp %d: active=%v done=%v but activeMask=%v issueMask=%v",
					c.id, i, c.wActive[i], c.wDone[i], abit, ibit),
			}
		}
		if abit {
			active++
		}
		if ibit {
			issuable++
		}
		if !c.wActive[i] {
			continue
		}
		warpOut += int(c.wOutstand[i])
		for _, p := range c.pending[i*c.numRegs : (i+1)*c.numRegs] {
			regPending += int(p)
		}
	}
	if active != c.activeCount || issuable != c.issuable {
		return &simerr.InvariantError{
			Component: "smcore", Name: "warp-index-counts", Cycle: cycle,
			Detail: fmt.Sprintf("core %d: %d active / %d issuable bits but counts say %d / %d",
				c.id, active, issuable, c.activeCount, c.issuable),
		}
	}
	if waiters := c.MRQ.WaiterCount(); warpOut != waiters || regPending != warpOut {
		return &simerr.InvariantError{
			Component: "smcore", Name: "scoreboard-balance", Cycle: cycle,
			Detail: fmt.Sprintf("core %d: warps wait on %d fills (%d pending register slots) but MRQ entries carry %d waiters",
				c.id, warpOut, regPending, waiters),
		}
	}
	return c.checkParking(cycle)
}

// checkParking verifies the stall-cause parking: ghosts are issue-index
// warps parked by one cause, parks name executing warps only, and every
// ghost is still certain to fail — a scoreboard ghost's instruction
// still waits on a pending register, and a capacity ghost's access still
// does not fit in the MRQ.
func (c *Core) checkParking(cycle uint64) error {
	fail := func(name string, word int, bad uint64, what string) error {
		return &simerr.InvariantError{
			Component: "smcore", Name: name, Cycle: cycle,
			Detail: fmt.Sprintf("core %d warp %d: %s", c.id, word<<6+bits.TrailingZeros64(bad), what),
		}
	}
	for w, g := range c.ghost {
		sb, mq := c.parkSB[w], c.parkMRQ[w]
		if bad := g &^ c.issueMask[w]; bad != 0 {
			return fail("ghost-issue", w, bad, "ghost outside issueMask")
		}
		if bad := g &^ (sb | mq); bad != 0 {
			return fail("ghost-park", w, bad, "ghost not parked")
		}
		if bad := sb & mq; bad != 0 {
			return fail("park-exclusive", w, bad, "parked on both the scoreboard and MRQ capacity")
		}
		if bad := (sb | mq) &^ c.activeMask[w]; bad != 0 {
			return fail("park-active", w, bad, "parked but not executing")
		}
		for bad := g & sb; bad != 0; bad &= bad - 1 {
			slot := w<<6 + bits.TrailingZeros64(bad)
			if !c.sbBlocked(slot, &c.prog.Instrs[c.wPC[slot]]) {
				return fail("ghost-scoreboard", w, bad, "scoreboard ghost has no pending operand")
			}
		}
		for bad := g & mq; bad != 0; bad &= bad - 1 {
			if slot := w<<6 + bits.TrailingZeros64(bad); c.accessFits(slot) {
				return fail("ghost-capacity", w, bad, "capacity ghost's access fits in the MRQ")
			}
		}
	}
	return nil
}

// accessFits reports, without touching the miss memo, whether the
// slot's current instruction would pass issueMemory's capacity check
// now. An instruction that is not a load or store always fits.
func (c *Core) accessFits(slot int) bool {
	in := &c.prog.Instrs[c.wPC[slot]]
	if in.Op != kernel.OpLoad && in.Op != kernel.OpStore || c.perfectMem {
		return true
	}
	txs := in.Mem.Transactions(int(c.wGwid[slot]), config.WarpSize, int(c.wIter[slot]), config.BlockBytes, nil)
	room := c.demandCap() - c.MRQ.Outstanding()
	if len(txs) <= room {
		return true
	}
	if in.Op == kernel.OpStore || room <= 0 || c.PFCache.Empty() {
		return false
	}
	misses := 0
	for _, a := range txs {
		if !c.PFCache.Contains(a) {
			misses++
		}
	}
	return misses <= room
}

// maybeRetire finishes a warp whose program ended and whose loads drained.
func (c *Core) maybeRetire(slot int) {
	if !c.wActive[slot] || !c.wDone[slot] || c.wOutstand[slot] != 0 {
		return
	}
	c.wActive[slot] = false
	c.liveWarps--
	c.stats.WarpsCompleted++
	blk := int(c.wBlock[slot])
	b := &c.blocks[blk]
	b.remaining--
	if b.remaining == 0 {
		b.active = false
		c.stats.BlocksCompleted++
		c.tryLaunchBlock(blk)
	}
}

// Cycle advances the core by one cycle: throttle-period accounting and at
// most one warp-instruction issue. Cycles since the core was last stepped
// are attributed first (AccountTo). A non-nil error is an invariant
// violation (the simulation must abort).
func (c *Core) Cycle(cycle uint64) error {
	if c.cpi != nil {
		c.AccountTo(cycle)
		c.acct = cycle + 1
	}
	if c.periodic && cycle >= c.nextPeriod {
		c.endPeriod(cycle)
		c.nextPeriod = cycle + c.cfg.ThrottlePeriod
	}
	if cycle < c.issueBusyUntil {
		// Issue-stage occupancy from a previous instruction counts as
		// useful issue bandwidth, not a stall.
		if c.cpi != nil {
			c.cpi.Buckets[obs.BucketIssued]++
		}
		return nil
	}
	if c.issuable == 0 {
		if c.cpi != nil {
			c.cpi.Buckets[c.stallBucket()]++
		}
		return nil
	}
	// Switch-on-stall scheduling (Section II-B): keep issuing from the
	// current warp until its operands are not ready, then move on. The
	// resulting stagger between warps is what gives inter-thread
	// prefetches their timeliness. The scan walks issueMask from rr with
	// wraparound, in the same order as a full (rr+k)%n sweep.
	issued, err := c.scanIssue(cycle, c.rr, c.numWarps)
	if err != nil {
		return err
	}
	if !issued {
		if issued, err = c.scanIssue(cycle, 0, c.rr); err != nil {
			return err
		}
	}
	if c.cpi != nil {
		if issued {
			c.cpi.Buckets[obs.BucketIssued]++
		} else {
			c.cpi.Buckets[c.stallBucket()]++
		}
	}
	return nil
}

// scanIssue walks the set bits of issueMask over slots [from, to) in
// ascending order, trying to issue from each; it stops at the first
// success. Warps that fail to issue leave the mask until the next wake.
// Ghosts are not tried: the scan passes them in bulk where it stops in
// a word (below the issuing slot, or the whole in-range word).
func (c *Core) scanIssue(cycle uint64, from, to int) (bool, error) {
	if from >= to {
		return false, nil
	}
	for wi := from >> 6; wi<<6 < to; wi++ {
		inRange := ^uint64(0)
		if base := wi << 6; base < from {
			inRange <<= uint(from-base) & 63
		}
		if rem := to - wi<<6; rem < 64 {
			inRange &= 1<<uint(rem) - 1
		}
		ghosts := c.ghost[wi] & inRange
		word := c.issueMask[wi] & inRange &^ ghosts
		for word != 0 {
			bit := word & -word
			slot := wi<<6 + bits.TrailingZeros64(word)
			word ^= bit
			issued, err := c.tryIssue(cycle, slot)
			if err != nil {
				return false, err
			}
			if issued {
				c.passGhosts(wi, ghosts&(bit-1))
				c.rr = slot
				return true, nil
			}
			c.stallWarp(slot)
		}
		c.passGhosts(wi, ghosts)
	}
	return false, nil
}

// passGhosts retires the ghosts g of mask word wi as their failed tries
// would have: they leave the issue scan until the next wake, and each
// capacity ghost counts as a capacity-stalled attempt.
func (c *Core) passGhosts(wi int, g uint64) {
	if g == 0 {
		return
	}
	c.issueMask[wi] &^= g
	c.ghost[wi] &^= g
	c.issuable -= bits.OnesCount64(g)
	if n := bits.OnesCount64(g & c.parkMRQ[wi]); n > 0 {
		c.stats.IssueStallFullMRQ += uint64(n)
		c.stallMRQ += n
	}
}

// NoEvent is the NextEvent result meaning "no self-scheduled work".
const NoEvent = ^uint64(0)

// NextEvent reports the next cycle at which the core can change state on
// its own, given no intervening memory event: the next throttle-period
// boundary, and — while any warp is still issue-eligible — the end of the
// current issue occupancy. NoEvent when every resident warp is done or
// stalled; only a fill or a freed MRQ slot can change that, and those are
// the memory system's events. The value is a conservative lower bound:
// stepping the core on a cycle where nothing happens is safe, skipping
// one where something would have happened is not. The simulator keeps
// the answer as the core's wake entry until it steps the core again or a
// Fill or writeback PopSend resets it, so the answer may only change
// through Cycle, Fill and PopSend.
func (c *Core) NextEvent(cycle uint64) uint64 {
	next := uint64(NoEvent)
	if c.periodic && c.nextPeriod < next {
		next = c.nextPeriod
	}
	if c.issuable > 0 {
		t := c.issueBusyUntil
		if t <= cycle {
			t = cycle + 1
		}
		if t < next {
			next = t
		}
	}
	return next
}

// sbBlocked reports whether the scoreboard holds the slot's instruction
// in: a source is pending, or a load's destination is still being filled
// (software pipelining WAW).
func (c *Core) sbBlocked(slot int, in *kernel.Instr) bool {
	sb := c.pending[slot*c.numRegs : (slot+1)*c.numRegs]
	return sb[in.Src1] > 0 || sb[in.Src2] > 0 || in.Op == kernel.OpLoad && sb[in.Dst] > 0
}

// tryIssue attempts to issue the slot's next instruction; it reports
// success. A failure parks the warp by its cause: the scoreboard here,
// MRQ capacity in issueMemory.
func (c *Core) tryIssue(cycle uint64, slot int) (bool, error) {
	in := &c.prog.Instrs[c.wPC[slot]]
	if c.sbBlocked(slot, in) {
		c.parkSB[slot>>6] |= 1 << (uint(slot) & 63)
		return false, nil
	}
	switch in.Op {
	case kernel.OpALU:
		c.issueOccupy(cycle, config.IssueCostALU)
		c.stats.ComputeInstrs++
	case kernel.OpIMul:
		c.issueOccupy(cycle, config.IssueCostIMul)
		c.stats.ComputeInstrs++
	case kernel.OpFDiv:
		c.issueOccupy(cycle, config.IssueCostFDiv)
		c.stats.ComputeInstrs++
	case kernel.OpLoopBack:
		c.issueOccupy(cycle, config.IssueCostALU)
	case kernel.OpLoad, kernel.OpStore:
		issued, err := c.issueMemory(cycle, slot, in)
		if err != nil {
			return false, err
		}
		if !issued {
			c.stats.IssueStallFullMRQ++
			c.stallMRQ++
			return false, nil
		}
		c.stats.MemInstrs++
	case kernel.OpPrefetch:
		c.issueSWPrefetch(cycle, slot, in)
		c.stats.PrefetchInstrs++
	}
	c.stats.Instructions++
	if in.Op != kernel.OpPrefetch {
		c.stats.ProgInstructions++
	}
	// Advance control flow.
	if in.Op == kernel.OpLoopBack && c.wRemTrips[slot] > 1 {
		c.wRemTrips[slot]--
		c.wIter[slot]++
		c.wPC[slot] = int32(in.Target)
	} else {
		c.wPC[slot]++
	}
	if int(c.wPC[slot]) >= len(c.prog.Instrs) {
		c.wDone[slot] = true
		c.warpDone(slot)
		c.maybeRetire(slot)
	}
	return true, nil
}

// demandCap is the MRQ occupancy demands and stores may reach; the
// remainder is reserved for prefetches (config.MRQPrefetchReserve).
func (c *Core) demandCap() int {
	return c.cfg.MRQSize - c.cfg.MRQPrefetchReserve
}

func (c *Core) issueOccupy(cycle uint64, cost int) {
	c.issueBusyUntil = cycle + uint64(cost)
}

// transactions returns the block addresses touched by in for the warp in
// slot, memoized across stalled retries of the same instruction.
func (c *Core) transactions(slot int, in *kernel.Instr) []uint64 {
	m := &c.memo[slot]
	pc, iter := c.wPC[slot], c.wIter[slot]
	if m.valid && m.pc == pc && m.iter == iter {
		return m.txs
	}
	m.txs = in.Mem.Transactions(int(c.wGwid[slot]), config.WarpSize, int(iter), config.BlockBytes, m.txs[:0])
	m.pc, m.iter, m.valid, m.missOK = pc, iter, true, false
	return m.txs
}

// missesFit reports whether at most room of the slot's memoized
// transactions miss the prefetch cache. The count stops as soon as it
// exceeds room, and is kept with the cache generation it was taken at,
// so a retry at the same generation resumes it instead of starting over
// (see txMemo).
func (c *Core) missesFit(slot, room int) bool {
	m := &c.memo[slot]
	if gen := c.PFCache.Gen(); !m.missOK || m.missGen != gen {
		m.misses, m.scanned, m.missGen, m.missOK = 0, 0, gen, true
	}
	for m.misses <= room && m.scanned < len(m.txs) {
		if !c.PFCache.Contains(m.txs[m.scanned]) {
			m.misses++
		}
		m.scanned++
	}
	return m.misses <= room
}

// issueMemory handles loads and stores; it reports false when the MRQ
// cannot absorb the access, parking the warp on capacity with a lower
// bound on the room its access needs (the warp retries once a wake may
// have made that room). A non-nil error is an invariant violation.
func (c *Core) issueMemory(cycle uint64, slot int, in *kernel.Instr) (bool, error) {
	txs := c.transactions(slot, in)
	gwid, pc := int(c.wGwid[slot]), int(c.wPC[slot])
	if in.Op == kernel.OpStore {
		if c.perfectMem {
			c.issueOccupy(cycle, config.IssueCostMem)
			return true, nil
		}
		if c.MRQ.Outstanding()+len(txs) > c.demandCap() {
			c.parkMRQWarp(slot, len(txs))
			return false, nil
		}
		c.issueOccupy(cycle, config.IssueCostMem)
		for _, addr := range txs {
			c.MRQ.Add(c.pool.Get(addr, config.BlockBytes, memreq.Writeback, c.id, gwid, pc, cycle))
		}
		return true, nil
	}
	// Demand load.
	if c.perfectMem {
		c.stats.DemandTransactions += uint64(len(txs))
		c.issueOccupy(cycle, config.IssueCostMem)
		return true, nil
	}
	// Capacity check. Fast paths: a totally full queue always stalls, and
	// a queue with room for the worst case always proceeds; only in
	// between do we need to count prefetch-cache hits. With the cache
	// empty every transaction misses; with it non-empty a full queue
	// needs at least one entry; otherwise the access needs at least the
	// misses counted so far (the count stops once it exceeds the room).
	out := c.MRQ.Outstanding()
	if out+len(txs) > c.demandCap() {
		switch {
		case c.PFCache.Empty():
			c.parkMRQWarp(slot, len(txs))
			return false, nil
		case out >= c.demandCap():
			c.parkMRQWarp(slot, 1)
			return false, nil
		case !c.missesFit(slot, c.demandCap()-out):
			c.parkMRQWarp(slot, c.memo[slot].misses)
			return false, nil
		}
	}
	c.stats.DemandTransactions += uint64(len(txs))
	c.issueOccupy(cycle, config.IssueCostMem)
	cacheLive := !c.PFCache.Empty()
	for _, addr := range txs {
		if cacheLive && c.PFCache.Lookup(addr) {
			c.stats.PFCacheHitTransactions++
			continue
		}
		r := c.pool.Get(addr, config.BlockBytes, memreq.Demand, c.id, gwid, pc, cycle)
		r.Waiters = append(r.Waiters, memreq.Waiter{Warp: int32(slot), Reg: uint8(in.Dst)})
		c.startSpan(r, cycle)
		switch c.MRQ.Add(r) {
		case mrq.Accepted:
			r.StampSpan(memreq.SpanMRQEnqueue, cycle)
			c.pending[slot*c.numRegs+int(in.Dst)]++
			c.wOutstand[slot]++
		case mrq.Merged:
			c.pending[slot*c.numRegs+int(in.Dst)]++
			c.wOutstand[slot]++
			// MergeDemand copied the waiter into the surviving entry; this
			// request is dead and can be recycled.
			c.spans.Finish(r, cycle, memreq.TermMRQMerged)
			c.pool.Put(r)
		case mrq.Rejected:
			// Capacity was checked above; a reject can only happen if
			// another path raced, which cannot occur single-threaded.
			return false, &simerr.InvariantError{
				Component: "smcore", Name: "mrq-capacity-check", Cycle: cycle,
				Detail: fmt.Sprintf("core %d: MRQ rejected a capacity-checked demand at %#x (outstanding %d of %d)",
					c.id, addr, c.MRQ.Outstanding(), c.cfg.MRQSize),
			}
		}
	}
	// Train the hardware prefetcher on the warp access.
	if c.HWP != nil {
		c.trainHWP(cycle, slot, txs)
	}
	return true, nil
}

// trainHWP presents the access to the hardware prefetcher and issues the
// surviving candidates.
func (c *Core) trainHWP(cycle uint64, slot int, txs []uint64) {
	base := txs[0]
	for _, a := range txs[1:] {
		if a < base {
			base = a
		}
	}
	c.footBuf = c.footBuf[:0]
	for _, a := range txs {
		c.footBuf = append(c.footBuf, a-base)
	}
	c.candBuf = c.HWP.Observe(prefetch.Train{
		PC:        int(c.wPC[slot]),
		WarpID:    int(c.wGwid[slot]),
		Cycle:     cycle,
		Addr:      base,
		Footprint: c.footBuf,
	}, c.candBuf[:0])
	c.issuePrefetches(cycle, int(c.wGwid[slot]), int(c.wPC[slot]), c.candBuf)
}

// issueSWPrefetch executes a software prefetch instruction. The source
// tag distinguishes the stride-style and inter-warp (IP-style) software
// schemes so attribution can separate their outcomes.
func (c *Core) issueSWPrefetch(cycle uint64, slot int, in *kernel.Instr) {
	c.issueOccupy(cycle, config.IssueCostMem)
	if c.perfectMem {
		return
	}
	txs := c.transactions(slot, in)
	src := swpref.SourceOf(in.Mem)
	for _, addr := range txs {
		c.issuePrefetch(cycle, int(c.wGwid[slot]), int(c.wPC[slot]), src, addr)
	}
}

// issuePrefetches routes hardware-prefetcher candidates, each carrying
// the source tag of the mechanism that generated it, into issuePrefetch.
func (c *Core) issuePrefetches(cycle uint64, gwid, pc int, candidates []prefetch.Candidate) {
	for _, cand := range candidates {
		c.issuePrefetch(cycle, gwid, pc, cand.Source, cand.Addr)
	}
}

// issuePrefetch filters one candidate through the throttle engine, the
// prefetch cache, and the MRQ, issuing it if it survives. Prefetches are
// non-binding: on any resource shortage they are dropped, never stalled.
// When attribution is attached, every candidate is counted as generated
// and given exactly one pre-issue drop outcome or an issue, under a
// provenance stamped with the generating source, the training PC, the
// triggering warp, and the throttle degree at issue.
func (c *Core) issuePrefetch(cycle uint64, gwid, pc int, src memreq.Source, addr uint64) {
	addr = memreq.BlockAlign(addr, config.BlockBytes)
	c.stats.PrefetchesGenerated++
	var prov memreq.Provenance
	if c.pf != nil || c.spans != nil {
		// Spans reuse the provenance plumbing for per-source latency
		// attribution, so the stamp is built whenever either consumer is
		// on; it never feeds back into the simulated machine.
		prov = memreq.Provenance{
			Source:  src,
			Degree:  c.Throt.StampDegree(),
			TrainPC: int32(pc),
			Warp:    int32(gwid),
		}
		c.pf.Generated(prov)
	}
	if c.Throt != nil && !c.Throt.Allow() {
		c.stats.DroppedThrottle++
		c.pf.Record(prov, memreq.OutDroppedThrottle)
		if c.trace != nil {
			c.trace.Emit(obs.EvPrefetchThrottled, cycle, c.id, addr, int64(c.Throt.Degree()))
		}
		return
	}
	if c.PFCache.Contains(addr) {
		c.stats.DroppedInCache++
		c.pf.Record(prov, memreq.OutDroppedInCache)
		return
	}
	r := c.pool.Get(addr, config.BlockBytes, memreq.Prefetch, c.id, gwid, pc, cycle)
	r.Prov = prov
	c.startSpan(r, cycle)
	switch c.MRQ.Add(r) {
	case mrq.Accepted:
		r.StampSpan(memreq.SpanMRQEnqueue, cycle)
		c.stats.PrefetchesIssued++
		c.pf.Issued(prov)
		if c.trace != nil {
			c.trace.Emit(obs.EvPrefetchIssued, cycle, c.id, addr, int64(pc))
		}
	case mrq.Merged:
		c.stats.PrefetchMergedMRQ++
		r.Outcome = memreq.OutMergedMRQ
		c.pf.Record(prov, memreq.OutMergedMRQ)
		c.spans.Finish(r, cycle, memreq.TermMRQMerged)
		c.pool.Put(r)
	case mrq.Rejected:
		c.stats.DroppedQueueFull++
		r.Outcome = memreq.OutDroppedQueueFull
		c.pf.Record(prov, memreq.OutDroppedQueueFull)
		c.spans.Finish(r, cycle, memreq.TermMRQRejected)
		c.pool.Put(r)
	}
}

// endPeriod closes a throttling period: it hands the monitored metrics to
// the throttle engine (Table I) and to any feedback-directed prefetcher.
func (c *Core) endPeriod(cycle uint64) {
	cs := c.PFCache.Stats()
	ms := c.MRQ.Stats()
	useful := cs.FirstUses - c.lastCache.FirstUses
	m := throttle.Metrics{
		EarlyEvictions:   cs.EarlyEvictions - c.lastCache.EarlyEvictions,
		UsefulPrefetches: useful,
		IntraCoreMerges:  ms.Merges - c.lastMRQ.Merges,
		TotalRequests:    ms.TotalArrivals() - c.lastMRQ.TotalArrivals(),
		PrefetchesIssued: c.stats.PrefetchesIssued - c.lastIssued,
	}
	if c.Throt != nil {
		prev := c.Throt.Degree()
		deg := c.Throt.EndPeriod(m)
		if c.trace != nil {
			// Emitted every period, not just on change, so the Chrome
			// trace counter track renders a full step function.
			c.trace.Emit(obs.EvThrottleDegree, cycle, c.id, uint64(deg), int64(prev))
		}
	}
	if fp, ok := c.HWP.(prefetch.FeedbackPrefetcher); ok {
		fp.ApplyFeedback(prefetch.Feedback{
			Issued: m.PrefetchesIssued,
			Useful: useful,
			Late:   c.stats.LatePrefetches - c.lastLate,
		})
	}
	c.lastCache = cs
	c.lastMRQ = ms
	c.lastIssued = c.stats.PrefetchesIssued
	c.lastLate = c.stats.LatePrefetches
}
