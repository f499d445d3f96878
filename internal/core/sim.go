// Package core assembles the full system and is the library's main entry
// point: it wires SIMT cores (internal/smcore), the interconnect
// (internal/noc) and the DRAM system (internal/dram) into a cycle-level
// GPGPU simulator, applies the software-prefetching transforms and
// hardware-prefetcher/throttle configuration under study, runs a workload
// to completion, and reports the measurements the paper's evaluation is
// built from.
//
// Typical use:
//
//	res, err := core.Run(core.Options{
//	    Workload: workload.ByName("backprop"),
//	    Software: swpref.MTSWP,
//	    Throttle: true,
//	})
//
// All of Figures 8-18 and Tables III/IV are sweeps over these Options.
package core

import (
	"context"
	"fmt"

	"mtprefetch/internal/config"
	"mtprefetch/internal/dram"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/noc"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/smcore"
	"mtprefetch/internal/stats"
	"mtprefetch/internal/swpref"
	"mtprefetch/internal/throttle"
	"mtprefetch/internal/workload"
)

// Options selects the machine, the workload, and the prefetching
// mechanisms for one simulation.
type Options struct {
	// Config is the machine description; nil selects config.Baseline().
	Config *config.Config
	// Workload is the benchmark to run (required). Use Spec.Scaled to
	// shrink grids for fast runs.
	Workload *workload.Spec
	// Software selects a software-prefetching transform applied to the
	// kernel before the run (swpref.None for the baseline binary).
	Software swpref.Mode
	// Hardware, when non-nil, is called once per core to build its
	// hardware prefetcher.
	Hardware func() prefetch.Prefetcher
	// Throttle enables the adaptive prefetch-throttling engine.
	Throttle bool
	// PerfectMemory makes all memory operations free (the "PMEM" runs of
	// Tables III/IV).
	PerfectMemory bool
	// MaxCycles caps the simulation (default 500M) so configuration bugs
	// fail loudly instead of hanging.
	MaxCycles uint64
	// WatchdogWindow is the forward-progress window: if no warp
	// instruction retires and no memory fill is delivered for this many
	// cycles, Run aborts with a LivelockError instead of spinning until
	// MaxCycles. Zero selects the default, min(1M, MaxCycles). Must not
	// exceed MaxCycles.
	WatchdogWindow uint64
	// Checks enables the periodic invariant sweep: MRQ entry accounting,
	// NoC flit conservation, scoreboard release balance, prefetch-cache
	// line accounting, and DRAM buffer and parking bookkeeping. Off by
	// default — the sweep walks every core's state, so it is for
	// debugging and chaos tests.
	Checks bool
	// CheckEvery is the invariant-sweep period in cycles (default 65536
	// when Checks is set). Non-zero without Checks is rejected.
	CheckEvery uint64
	// NoCycleSkip disables event-driven cycle skipping, forcing the loop
	// to visit every cycle. Results are byte-identical either way — the
	// differential tests in skip_test.go enforce it — so the flag exists
	// for those tests, for benchmarking the machinery itself, and as an
	// escape hatch while debugging NextEvent implementations.
	NoCycleSkip bool
	// Inject, when non-nil, perturbs the run for chaos testing; see
	// FaultInjector. An injector that does not also implement EventSource
	// disables cycle skipping for the run.
	Inject FaultInjector
	// Ctx, when non-nil, bounds the run in wall-clock terms: Run polls
	// the context at a fixed cycle cadence and aborts with a
	// *CanceledError (wrapping the context cause) once it is done. This
	// complements the cycle-domain watchdog — a deadline context caps
	// elapsed time regardless of how fast cycles advance, and a canceled
	// context is how the harness drains in-flight runs at the next
	// barrier. Nil means the run can only end through the simulation
	// itself (completion, MaxCycles, watchdog, invariants) and the poll
	// costs nothing.
	Ctx context.Context
	// Obs attaches an observability bundle (epoch sampler and/or event
	// tracer; see obs.New). Nil runs with just the internal metrics
	// registry, which costs nothing on the simulation's hot path.
	Obs *obs.Observer
}

// Result is the measurement bundle of one simulation.
type Result struct {
	Benchmark string
	Cycles    uint64

	// Instruction counts are warp-instructions summed over all cores.
	ProgInstructions uint64  // the program's own instructions
	AllInstructions  uint64  // including software prefetch instructions
	CPI              float64 // cycles x cores / ProgInstructions

	// Demand-side memory behaviour.
	DemandTransactions uint64
	PFCacheHits        uint64  // demand transactions served by the prefetch cache
	AvgDemandLatency   float64 // cycles, for demands that went to memory
	MaxDemandLatency   uint64
	P50DemandLatency   float64 // distribution percentiles (log2-bucketed)
	P95DemandLatency   float64
	P99DemandLatency   float64

	// Prefetch behaviour.
	PrefetchesGenerated uint64
	PrefetchesIssued    uint64
	UsefulPrefetches    uint64
	LatePrefetches      uint64
	EarlyEvictions      uint64
	DroppedByThrottle   uint64
	DroppedByFilter     uint64  // always 0 (no pollution filter); kept so the Result JSON is unchanged
	Accuracy            float64 // useful / issued
	Coverage            float64 // prefetch-cache hits / demand transactions
	LateFraction        float64 // late / issued
	EarlyRate           float64 // early evictions / useful (Eq. 5)

	// Memory-system behaviour.
	MergeRatio       float64 // intra-core merges / MRQ arrivals (Eq. 6)
	InterCoreMerges  uint64
	MemTransactions  uint64 // DRAM accesses actually serviced
	BytesTransferred uint64
	RowHitRate       float64
	// L2Hits and L2Misses are always zero: the modelled memory system
	// has no L2 (Table II). They stay until the benchmark's golden
	// results, which pin every Result field, are regenerated without them.
	L2Hits   uint64
	L2Misses uint64

	// Throttle behaviour.
	ThrottlePeriods   uint64
	NoPrefetchPeriods uint64

	// MT-HWP table behaviour, populated when the hardware prefetcher is
	// an MT-HWP instance (Section VIII-B).
	MTHWP prefetch.MTHWPStats
}

// Speedup is the conventional cycles ratio: baseline.Cycles / r.Cycles.
func (r *Result) Speedup(baseline *Result) float64 {
	return stats.SafeDiv(float64(baseline.Cycles), float64(r.Cycles))
}

// dispatcher deals blocks to cores in order.
type dispatcher struct {
	next, total int
}

func (d *dispatcher) NextBlock() (int, bool) {
	if d.next >= d.total {
		return 0, false
	}
	b := d.next
	d.next++
	return b, true
}

// Simulator is the assembled machine; use New + Run, or core.Run for the
// one-shot form.
type Simulator struct {
	cfg   *config.Config
	spec  *workload.Spec
	cores []*smcore.Core
	net   *noc.Network
	mem   *dram.Memory
	disp  *dispatcher
	opts  Options

	rrCore    int
	injBudget int          // cached cfg.MaxInjectPerCycle()
	pool      *memreq.Pool // request free-list shared by cores and DRAM

	// Event-driven cycle skipping (see Run and nextEventCycle).
	skipOK  bool        // skipping enabled for this run
	injEvts EventSource // non-nil when the injector is skip-aware
	skipped uint64      // cycles never visited

	// Per-core wake calendar (see Run). wake[i] is core i's NextEvent as
	// of its last step, or 0 once a fill or a writeback leaving its MRQ
	// has changed its issue state since; minWake is at most every wake
	// entry, and their minimum after phase 4. sending[i] is whether core
	// i's MRQ send queue is non-empty, and nsend how many are. stepAll
	// steps every core on every visited cycle regardless (NoCycleSkip,
	// fault injection).
	wake    []uint64
	minWake uint64
	sending []bool
	nsend   int
	stepAll bool

	reg     *obs.Registry // always non-nil; end-of-run aggregation reads it
	sampler *obs.Sampler  // nil unless Options.Obs enabled sampling
	pfrep   *obs.PFReport // nil unless Options.Obs enabled attribution
	cpi     *obs.CPIStack // nil unless Options.Obs enabled cycle accounting
	spans   *obs.SpanSet  // nil unless Options.Obs enabled span tracing
	tracer  *obs.Tracer   // nil unless Options.Obs enabled tracing

	tolBuf []obs.Tolerance // scratch for epoch tolerance snapshots

	// Robustness state (see robust.go).
	inj         FaultInjector
	runFault    RunFaulter      // non-nil when the injector can abort the run
	ctx         context.Context // nil unless Options.Ctx bounded the run
	nextCtx     uint64          // next cycle the cancellation poll is due
	watchWindow uint64          // forward-progress window, never 0
	nextWatch   uint64
	fills       uint64 // memory fills delivered to cores
	lastInstr   uint64 // watchdog: instructions at last window boundary
	lastFills   uint64 // watchdog: fills at last window boundary
	checkEvery  uint64 // 0 disables the invariant sweep
	nextCheck   uint64

	cycle uint64
}

// Registry exposes the simulator's metrics registry, for inspection and
// consistency tests.
func (s *Simulator) Registry() *obs.Registry { return s.reg }

// defaultWatchdogWindow is the forward-progress window when the caller
// leaves Options.WatchdogWindow zero; it is clamped to MaxCycles so
// short capped runs keep their plain timeout semantics.
const defaultWatchdogWindow = 1_000_000

// defaultCheckEvery is the invariant-sweep period when Options.Checks
// is set without an explicit CheckEvery.
const defaultCheckEvery = 65_536

// ctxPollEvery is the cancellation-poll cadence in visited cycles when
// Options.Ctx is set. It is an observer deadline like the watchdog
// window: it clamps event-driven skips (so a mostly-idle run still
// notices cancellation promptly) but visiting the poll cycle is a
// semantic no-op, keeping results byte-identical whether or not a
// context is attached — unless, of course, the context fires.
const ctxPollEvery = 4096

// New builds a simulator; see Options. Rejected options are reported as
// *OptionError with the offending field named.
func New(o Options) (*Simulator, error) {
	if o.Workload == nil {
		return nil, &OptionError{Field: "Workload", Reason: "is required"}
	}
	if o.Config == nil {
		o.Config = config.Baseline()
	}
	if err := o.Config.Validate(); err != nil {
		return nil, &OptionError{Field: "Config", Err: err}
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 500_000_000
	}
	if o.WatchdogWindow > o.MaxCycles {
		return nil, &OptionError{Field: "WatchdogWindow",
			Reason: fmt.Sprintf("(%d) exceeds MaxCycles (%d): the watchdog could never fire", o.WatchdogWindow, o.MaxCycles)}
	}
	if o.CheckEvery > 0 && !o.Checks {
		return nil, &OptionError{Field: "CheckEvery",
			Reason: "set without Checks; invariant sweeps are opt-in"}
	}
	if o.Checks && o.CheckEvery == 0 {
		o.CheckEvery = defaultCheckEvery
	}
	spec := o.Workload
	if err := spec.Validate(); err != nil {
		return nil, &OptionError{Field: "Workload", Err: err}
	}
	spec, _, err := swpref.Apply(spec, o.Software)
	if err != nil {
		return nil, &OptionError{Field: "Software", Err: err}
	}

	cfg := o.Config
	s := &Simulator{
		cfg:  cfg,
		spec: spec,
		net:  noc.New(config.NOCLatency, cfg.MaxInjectPerCycle()),
		mem: dram.New(dram.Config{
			Channels:   config.DRAMChannels,
			Banks:      config.DRAMBanks,
			RowBytes:   config.DRAMRowBytes,
			BlockBytes: config.BlockBytes,
			QueueSize:  config.DRAMQueueSize,
			TCL:        config.TCL,
			TRCD:       config.TRCD,
			TRP:        config.TRP,
			BusCycles:  config.BusCyclesBlock,
			Overhead:   config.DRAMOverhead,
			AgePromote: cfg.DRAMAgePromote,
		}),
		disp: &dispatcher{total: spec.Blocks},
		opts: o,
		inj:  o.Inject,
		pool: memreq.NewPool(),
	}
	s.injBudget = cfg.MaxInjectPerCycle()
	s.skipOK = !o.NoCycleSkip
	// StallCore is a per-core, per-cycle hook, so a fault injector needs
	// every core stepped.
	s.stepAll = o.NoCycleSkip || o.Inject != nil
	s.wake = make([]uint64, cfg.NumCores)
	s.sending = make([]bool, cfg.NumCores)
	if o.Inject != nil {
		if es, ok := o.Inject.(EventSource); ok {
			s.injEvts = es
		} else {
			s.skipOK = false
		}
		if rf, ok := o.Inject.(RunFaulter); ok {
			s.runFault = rf
		}
	}
	s.ctx = o.Ctx
	// The pool's high-water mark is the machine's in-flight request
	// capacity — every core's MRQ full at once — so priming to it
	// replaces the warm-up's one-allocation-per-live-request ramp with a
	// single arena.
	s.pool.Prime(cfg.NumCores * cfg.MRQSize)
	s.mem.SetPool(s.pool)
	s.watchWindow = o.WatchdogWindow
	if s.watchWindow == 0 {
		s.watchWindow = min(defaultWatchdogWindow, o.MaxCycles)
	}
	s.nextWatch = s.watchWindow
	if o.Checks {
		s.checkEvery = o.CheckEvery
		s.nextCheck = s.checkEvery
	}
	for i := 0; i < cfg.NumCores; i++ {
		var hwp prefetch.Prefetcher
		if o.Hardware != nil {
			hwp = o.Hardware()
		}
		var eng *throttle.Engine
		if o.Throttle {
			eng = throttle.New(throttle.Config{
				EarlyHigh:  cfg.EarlyHighThresh,
				EarlyLow:   cfg.EarlyLowThresh,
				MergeHigh:  cfg.MergeHighThresh,
				InitDegree: config.ThrottleInitDegree,
			})
		}
		c, err := smcore.New(smcore.Options{
			ID:         i,
			Config:     cfg,
			Spec:       spec,
			Blocks:     s.disp,
			HWP:        hwp,
			Throttle:   eng,
			PerfectMem: o.PerfectMemory,
			Pool:       s.pool,
		})
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
	}

	// Observability: every component registers its counters; end-of-run
	// aggregation (collect) reads the registry, so the registry always
	// exists even without Options.Obs. The sampler and tracer stay nil
	// unless requested — their call sites are nil-guarded fast paths.
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if o.Obs != nil {
		if o.Obs.Registry != nil {
			reg = o.Obs.Registry
		}
		s.sampler = o.Obs.Sampler
		tracer = o.Obs.Tracer
		s.pfrep = o.Obs.PF
		s.cpi = o.Obs.CPI
		s.spans = o.Obs.Spans
	}
	s.reg = reg
	s.tracer = tracer
	for i, c := range s.cores {
		// Cycle accounting attaches before Observe so the per-bucket
		// registry counters are registered.
		c.AttachCPI(s.cpi.Core(i))
		c.Observe(reg, tracer)
		c.AttachPFReport(s.pfrep)
		c.AttachSpans(s.spans)
	}
	s.mem.Register(reg, obs.Labels{Core: obs.CoreGlobal, Component: "dram"})
	s.net.Register(reg, obs.Labels{Core: obs.CoreGlobal, Component: "noc"})
	reg.Counter("core.cycles_skipped", obs.Labels{Core: obs.CoreGlobal, Component: "core"},
		func() uint64 { return s.skipped })
	s.sampler.Define(DefaultSeries()...)
	return s, nil
}

// SkippedCycles reports how many cycles event-driven skipping never
// visited; Cycles in the Result still counts them (simulated time is
// identical with skipping on or off — only wall-clock work changes).
func (s *Simulator) SkippedCycles() uint64 { return s.skipped }

// Run advances the machine until the grid completes and the memory system
// drains, then returns the measurements.
//
// The loop is event-driven: after each visited cycle it computes the
// earliest future cycle at which any component can change state or any
// observer deadline falls due (nextEventCycle) and jumps s.cycle straight
// there. Skipped cycles are provably no-ops — every per-cycle step below
// degenerates to a cheap comparison when nothing is due — so results are
// byte-identical with skipping on or off; Options.NoCycleSkip and the
// differential tests in skip_test.go exist to keep that true.
//
// Within a visited cycle the same argument applies per core: a core is
// stepped only once the cycle reaches its wake entry (its NextEvent when
// last stepped, reset to 0 by a fill or a writeback leaving its MRQ, the
// only outside events that change its issue state). The cycles a core is
// not stepped are attributed to CPI buckets in bulk when it is next
// touched or observed (smcore.AccountTo), which is exact because its
// state is frozen in between.
func (s *Simulator) Run() (*Result, error) {
	var respBuf, reqBuf []*memreq.Request
	for ; s.cycle < s.opts.MaxCycles; s.cycle++ {
		cyc := s.cycle

		// 1. Memory responses reach their cores (optionally perturbed by
		// the fault injector).
		respBuf = s.net.ArrivedResponses(cyc, respBuf[:0])
		for _, r := range respBuf {
			r.StampSpan(memreq.SpanNoCRespDeliver, cyc)
			if s.inj != nil {
				switch s.inj.OnResponse(cyc, r) {
				case DropResponse:
					// Deliberately leaked: the MRQ still tracks r, so it
					// must not be recycled. A sampled span still terminates
					// here so conservation holds under fault injection.
					s.spans.Finish(r, cyc, memreq.TermDropped)
					continue
				case DropCompletion:
					s.spans.Finish(r, cyc, memreq.TermDropped)
					s.cores[r.CoreID].DropFill(r)
					continue
				}
			}
			s.cores[r.CoreID].Fill(cyc, r)
			s.wake[r.CoreID], s.minWake = 0, 0
			s.fills++
			// Each response object is delivered exactly once and nothing
			// retains it past Fill, so its lifecycle ends here.
			s.pool.Put(r)
		}

		// 2. Requests reach the DRAM controllers (with backpressure):
		// parked requests retry ahead of this cycle's arrivals.
		s.mem.RetryParked(cyc)
		reqBuf = s.net.ArrivedRequests(cyc, reqBuf[:0])
		for _, r := range reqBuf {
			// Delivery is stamped here, once, even when DRAM backpressure
			// parks the request — retries are queueing time, not network
			// time, and land in the span's dram_queue stage.
			r.StampSpan(memreq.SpanNoCReqDeliver, cyc)
			s.mem.Offer(cyc, r)
		}

		// 3. DRAM advances; completions head back through the network.
		respBuf = s.mem.Step(cyc, respBuf[:0])
		for _, r := range respBuf {
			r.StampSpan(memreq.SpanNoCRespInject, cyc)
			s.net.InjectResponse(cyc, r)
		}

		// 4. Cores that can act issue.
		if cyc >= s.minWake || s.stepAll {
			if err := s.stepCores(cyc); err != nil {
				return nil, err
			}
		}

		// 5. Cores inject MRQ traffic, round-robin, up to the NOC limit.
		s.inject(cyc)

		// 6. Epoch sampling (one comparison per cycle when enabled), for
		// both the metrics sampler and the CPI-stack epoch series.
		if s.sampler != nil {
			s.sampler.Tick(cyc)
		}
		if s.cpi != nil && cyc >= s.cpi.NextTick() {
			s.account(cyc + 1)
			s.cpi.CloseEpoch(cyc, s.tolerances(cyc), s.tracer)
		}

		// 7. Robustness: chaos run faults, the cancellation poll, the
		// invariant sweep, and the forward-progress watchdog.
		if s.runFault != nil {
			if err := s.runFault.RunFault(cyc); err != nil {
				return nil, err
			}
		}
		if s.ctx != nil && cyc >= s.nextCtx {
			if err := s.ctx.Err(); err != nil {
				return nil, &CanceledError{Benchmark: s.spec.Name, Cycle: cyc, Cause: err}
			}
			s.nextCtx = cyc + ctxPollEvery
		}
		if s.checkEvery != 0 && cyc >= s.nextCheck {
			if err := s.checkInvariants(cyc); err != nil {
				return nil, err
			}
			s.nextCheck = cyc + s.checkEvery
		}
		if cyc >= s.nextWatch {
			if err := s.checkProgress(cyc); err != nil {
				return nil, err
			}
			s.nextWatch = cyc + s.watchWindow
		}

		// 8. Termination — exact: done() only changes on visited cycles
		// and short-circuits on the first busy component, so checking it
		// every cycle is both cheap and finish-event precise.
		if s.done() {
			// Cycles 0..s.cycle inclusive were executed on this exit path.
			return s.finish(s.cycle + 1)
		}

		// 9. Event-driven skip: jump to the next cycle anything can
		// happen. s.cycle lands one before the target so the loop
		// increment visits it.
		if s.skipOK {
			if target := s.nextEventCycle(cyc); target > cyc+1 {
				if target > s.opts.MaxCycles {
					target = s.opts.MaxCycles
				}
				if target > cyc+1 {
					s.skipped += target - (cyc + 1)
					s.cycle = target - 1
				}
			}
		}
	}
	if s.done() {
		// The loop exited at the cap: cycles 0..s.cycle-1 were executed.
		return s.finish(s.cycle)
	}
	return nil, &maxCyclesError{benchmark: s.spec.Name, maxCycles: s.opts.MaxCycles}
}

// finish ends a drained run in which cycles 0..executed-1 were executed:
// it attributes the cycles the cores were not stepped, collects the
// Result, and runs the end-of-run conservation checks.
func (s *Simulator) finish(executed uint64) (*Result, error) {
	s.account(executed)
	res := s.collect()
	if err := s.checkPFConservation(); err != nil {
		return nil, err
	}
	if err := s.checkCPIConservation(executed); err != nil {
		return nil, err
	}
	if err := s.checkSpanConservation(s.cycle, true); err != nil {
		return nil, err
	}
	return res, nil
}

// account attributes every core's cycles before to that it was not
// stepped for (smcore.AccountTo); a no-op without cycle accounting.
func (s *Simulator) account(to uint64) {
	if s.cpi == nil {
		return
	}
	for _, c := range s.cores {
		c.AccountTo(to)
	}
}

// stepCores is phase 4 for a cycle at least one core's wake entry has
// reached (every cycle under stepAll): it steps those cores, re-arms
// their entries, and recomputes minWake.
func (s *Simulator) stepCores(cyc uint64) error {
	minWake := uint64(smcore.NoEvent)
	for i, c := range s.cores {
		if w := s.wake[i]; cyc < w && !s.stepAll {
			minWake = min(minWake, w)
			continue
		}
		if s.inj != nil && s.inj.StallCore(cyc, c.ID()) {
			// The suppressed cycle still gets a bucket (throttled) so
			// cycle-accounting conservation holds under fault injection.
			c.AccountExternalStall(cyc)
		} else if err := c.Cycle(cyc); err != nil {
			return err
		}
		w := c.NextEvent(cyc)
		s.wake[i] = w
		minWake = min(minWake, w)
		s.setSending(i, c.MRQ.SendQueueLen() > 0)
	}
	s.minWake = minWake
	return nil
}

// setSending records whether core i has requests waiting to be sent.
func (s *Simulator) setSending(i int, v bool) {
	if s.sending[i] == v {
		return
	}
	s.sending[i] = v
	if v {
		s.nsend++
	} else {
		s.nsend--
	}
}

// parkedLimit throttles NOC injection while the DRAM request buffers are
// rejecting traffic, propagating backpressure to the cores' MRQs instead
// of parking an unbounded overflow at the controllers.
const parkedLimit = 16

func (s *Simulator) inject(cyc uint64) {
	// With nothing to send the round-robin scan would wrap all the way
	// round, leaving rrCore where it is.
	if s.nsend == 0 || s.mem.Parked() >= parkedLimit {
		return
	}
	n := len(s.cores)
	budget := s.injBudget
	idle := 0
	for budget > 0 && idle < n {
		i := s.rrCore
		if s.rrCore++; s.rrCore == n {
			s.rrCore = 0
		}
		if !s.sending[i] {
			idle++
			continue
		}
		c := s.cores[i]
		r := c.NextSend()
		if !s.net.TryInjectRequest(cyc, r) {
			break
		}
		// The MRQ hands the request to the network in the same visited
		// cycle, so dequeue and inject coincide; writebacks are never
		// sampled and stamp as no-ops.
		r.StampSpan(memreq.SpanMRQDequeue, cyc)
		r.StampSpan(memreq.SpanNoCReqInject, cyc)
		if c.PopSend(cyc).Kind == memreq.Writeback {
			// The writeback's MRQ slot is free: stalled warps may issue.
			s.wake[i], s.minWake = 0, 0
		}
		s.setSending(i, c.MRQ.SendQueueLen() > 0)
		budget--
		idle = 0
	}
}

// nextEventCycle computes the earliest future cycle at which any
// component can act or any observer deadline falls due. Every term is a
// lower bound on its component's next state change: visiting a cycle
// where nothing happens is a harmless no-op, but skipping one where
// something would have happened breaks byte-identity, so all components
// answer conservatively and Run re-evaluates after every visited cycle.
// Any term at or below cyc+1 means no cycle can be skipped, so the scan
// bails out the moment one is found — on dense (non-skippable) cycles
// the whole computation is a few comparisons, which keeps the skip
// machinery near-free when it cannot win.
func (s *Simulator) nextEventCycle(cyc uint64) uint64 {
	floor := cyc + 1
	next := s.mem.NextEvent(cyc) // cyc+1 while DRAM backpressure parks requests
	if next <= floor {
		return next
	}
	if s.nsend > 0 {
		return floor // a sending MRQ arbitrates for injection every cycle
	}
	// Every core's NextEvent is still its wake entry, so minWake is their
	// minimum, unless a writeback leaving an MRQ this cycle reset one.
	t := s.minWake
	if t <= cyc {
		t = smcore.NoEvent
		for i, c := range s.cores {
			w := s.wake[i]
			if w <= cyc {
				w = c.NextEvent(cyc)
			}
			t = min(t, w)
		}
	}
	if t < next {
		if t <= floor {
			return t
		}
		next = t
	}
	if t := s.net.NextEvent(); t < next {
		if t <= floor {
			return t
		}
		next = t
	}
	if t := s.sampler.NextTick(); t < next {
		next = t
	}
	if t := s.cpi.NextTick(); t < next {
		next = t
	}
	if s.checkEvery != 0 && s.nextCheck < next {
		next = s.nextCheck
	}
	if s.nextWatch < next {
		next = s.nextWatch
	}
	if s.ctx != nil && s.nextCtx < next {
		next = s.nextCtx
	}
	if s.injEvts != nil {
		if t := s.injEvts.NextEvent(cyc); t < next {
			next = t
		}
	}
	return next
}

func (s *Simulator) done() bool {
	if s.disp.next < s.disp.total {
		return false
	}
	for _, c := range s.cores {
		if !c.Idle() {
			return false
		}
	}
	return s.net.InFlight() == 0 && s.mem.Drained()
}

// PFReport exposes the run's prefetch attribution ledger, or nil when
// attribution was not enabled via Options.Obs.
func (s *Simulator) PFReport() *obs.PFReport { return s.pfrep }

// CPIStack exposes the run's cycle-accounting state, or nil when cycle
// accounting was not enabled via Options.Obs.
func (s *Simulator) CPIStack() *obs.CPIStack { return s.cpi }

// Spans exposes the run's span aggregation, or nil when span tracing was
// not enabled via Options.Obs.
func (s *Simulator) Spans() *obs.SpanSet { return s.spans }

// tolerances snapshots every core's latency-tolerance signals into the
// reusable scratch buffer (CPIStack.CloseEpoch copies what it keeps).
func (s *Simulator) tolerances(cyc uint64) []obs.Tolerance {
	s.tolBuf = s.tolBuf[:0]
	for _, c := range s.cores {
		s.tolBuf = append(s.tolBuf, c.Tolerance(cyc))
	}
	return s.tolBuf
}

// checkCPIConservation verifies (Options.Checks only) that every
// executed cycle was attributed to exactly one CPI-stack bucket on every
// core, skipped spans and unstepped cycles included.
func (s *Simulator) checkCPIConservation(executed uint64) error {
	if s.cpi == nil || !s.opts.Checks {
		return nil
	}
	s.account(executed)
	if ie := s.cpi.CheckConservation(s.cycle, executed); ie != nil {
		return ie
	}
	return nil
}

// checkSpanConservation verifies (Options.Checks only), after collect,
// that every sampled request reached exactly one terminal and every
// recorded span was well-formed. drained marks a fully drained machine,
// where started must equal finished; both Run exits require done(), so
// they always pass true.
func (s *Simulator) checkSpanConservation(cycle uint64, drained bool) error {
	if s.spans == nil || !s.opts.Checks {
		return nil
	}
	if ie := s.spans.CheckConservation(cycle, drained); ie != nil {
		return ie
	}
	return nil
}

// checkPFConservation verifies, after the attribution ledger is closed
// by collect, that every generated prefetch received exactly one fate
// (Options.Checks only). A double- or never-classified prefetch breaks
// the identity and aborts the run like any other invariant violation.
func (s *Simulator) checkPFConservation() error {
	if s.pfrep == nil || !s.opts.Checks {
		return nil
	}
	if ie := s.pfrep.CheckConservation(s.cycle); ie != nil {
		return ie
	}
	return nil
}

func (s *Simulator) collect() *Result {
	s.sampler.Finish(s.cycle)
	if s.cpi != nil {
		s.cpi.Finish(s.cycle, s.tolerances(s.cycle), s.tracer)
	}
	if s.pfrep != nil {
		// Close the attribution ledger: still-resident unused lines get
		// their terminal fate, and the coverage denominator is fixed.
		for _, c := range s.cores {
			c.PFCache.DrainUnused()
		}
		s.pfrep.SetDemandTransactions(s.reg.Sum("smcore.demand_transactions"))
	}
	reg := s.reg
	r := &Result{Benchmark: s.spec.Name, Cycles: s.cycle}
	r.ProgInstructions = reg.Sum("smcore.prog_instructions")
	r.AllInstructions = reg.Sum("smcore.instructions")
	r.CPI = stats.SafeDiv(float64(r.Cycles)*float64(s.cfg.NumCores), float64(r.ProgInstructions))
	r.DemandTransactions = reg.Sum("smcore.demand_transactions")
	r.PFCacheHits = reg.Sum("smcore.pfcache_hit_transactions")
	lat := reg.MergedHistogram("smcore.demand_latency")
	r.AvgDemandLatency = lat.Avg()
	r.MaxDemandLatency = lat.Max
	r.P50DemandLatency = lat.Percentile(50)
	r.P95DemandLatency = lat.Percentile(95)
	r.P99DemandLatency = lat.Percentile(99)
	r.PrefetchesGenerated = reg.Sum("smcore.prefetches_generated")
	r.PrefetchesIssued = reg.Sum("smcore.prefetches_issued")
	r.UsefulPrefetches = reg.Sum("pfcache.first_uses")
	r.LatePrefetches = reg.Sum("smcore.late_prefetches")
	r.EarlyEvictions = reg.Sum("pfcache.early_evictions")
	r.DroppedByThrottle = reg.Sum("smcore.dropped_throttle")
	r.Accuracy = stats.Ratio(r.UsefulPrefetches, r.PrefetchesIssued)
	if r.Accuracy > 1 {
		r.Accuracy = 1
	}
	r.Coverage = stats.Ratio(r.PFCacheHits, r.DemandTransactions)
	r.LateFraction = stats.Ratio(r.LatePrefetches, r.PrefetchesIssued)
	r.EarlyRate = stats.Ratio(r.EarlyEvictions, r.UsefulPrefetches)
	merges := reg.Sum("mrq.merges")
	arrivals := reg.Sum("mrq.demands") + reg.Sum("mrq.prefetches") +
		reg.Sum("mrq.writebacks") + merges
	r.MergeRatio = stats.Ratio(merges, arrivals)

	r.InterCoreMerges = reg.Sum("dram.inter_core_merges")
	r.MemTransactions = reg.Sum("dram.demands") + reg.Sum("dram.prefetches") +
		reg.Sum("dram.writebacks")
	r.BytesTransferred = r.MemTransactions * config.BlockBytes
	rowHits := reg.Sum("dram.row_hits")
	r.RowHitRate = stats.Ratio(rowHits,
		rowHits+reg.Sum("dram.row_misses")+reg.Sum("dram.row_closed"))
	r.ThrottlePeriods = reg.Sum("throttle.periods")
	r.NoPrefetchPeriods = reg.Sum("throttle.no_prefetch_periods")
	r.MTHWP = prefetch.MTHWPStats{
		Observations: reg.Sum("mthwp.observations"),
		PWSAccesses:  reg.Sum("mthwp.pws_accesses"),
		PWSHits:      reg.Sum("mthwp.pws_hits"),
		GSHits:       reg.Sum("mthwp.gs_hits"),
		IPHits:       reg.Sum("mthwp.ip_hits"),
		Promotions:   reg.Sum("mthwp.promotions"),
	}
	return r
}

// Run is the one-shot convenience: build a Simulator and run it.
func Run(o Options) (*Result, error) {
	s, err := New(o)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
