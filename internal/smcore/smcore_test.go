package smcore

import (
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/kernel"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/throttle"
	"mtprefetch/internal/workload"
)

// blockList deals a fixed number of blocks.
type blockList struct{ next, total int }

func (b *blockList) NextBlock() (int, bool) {
	if b.next >= b.total {
		return 0, false
	}
	n := b.next
	b.next++
	return n, true
}

// testSpec builds a tiny 1-block spec around a program.
func testSpec(t *testing.T, prog *kernel.Program, warpsPerBlock, blocks, maxBlk int) *workload.Spec {
	t.Helper()
	s := &workload.Spec{
		Name: "t", Suite: "t", Class: workload.MP,
		TotalWarps: warpsPerBlock * blocks, Blocks: blocks,
		MaxBlocksPerCore: maxBlk, RegsPerThread: 8,
		Program: prog,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func newCore(t *testing.T, spec *workload.Spec, hwp prefetch.Prefetcher, eng *throttle.Engine) *Core {
	t.Helper()
	c, err := New(Options{
		ID:       0,
		Config:   config.Baseline(),
		Spec:     spec,
		Blocks:   &blockList{total: spec.Blocks},
		HWP:      hwp,
		Throttle: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drain runs the core with an ideal zero-latency memory: every cycle,
// sends are completed and filled back after `lat` cycles.
func drain(t *testing.T, c *Core, lat uint64, maxCycles int) uint64 {
	t.Helper()
	return drainSent(t, c, lat, maxCycles, func(*memreq.Request) {})
}

// drainSent is drain, handing every request the core sends to sent.
func drainSent(t *testing.T, c *Core, lat uint64, maxCycles int, sent func(*memreq.Request)) uint64 {
	t.Helper()
	type pending struct {
		at  uint64
		req *memreq.Request
	}
	var inflight []pending
	for cyc := uint64(0); cyc < uint64(maxCycles); cyc++ {
		kept := inflight[:0]
		for _, p := range inflight {
			if p.at <= cyc {
				c.Fill(cyc, p.req)
			} else {
				kept = append(kept, p)
			}
		}
		inflight = kept
		c.Cycle(cyc)
		for {
			r := c.PopSend(cyc)
			if r == nil {
				break
			}
			sent(r)
			if r.Kind != memreq.Writeback {
				inflight = append(inflight, pending{at: cyc + lat, req: r})
			}
		}
		if c.Idle() && len(inflight) == 0 {
			return cyc
		}
	}
	t.Fatalf("core did not drain in %d cycles (live=%d outstanding=%d)",
		maxCycles, c.liveWarps, c.MRQ.Outstanding())
	return 0
}

func computeOnly(n int) *kernel.Program {
	b := kernel.NewBuilder("compute")
	r := b.ALU()
	b.Compute(n-1, r)
	return b.MustBuild()
}

func loadUse() *kernel.Program {
	b := kernel.NewBuilder("loaduse")
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 4})
	b.Compute(2, v)
	return b.MustBuild()
}

func TestComputeIssueOccupancy(t *testing.T) {
	// 1 warp x 10 ALU instructions at 4 cycles each ~= 40 cycles.
	spec := testSpec(t, computeOnly(10), 1, 1, 1)
	c := newCore(t, spec, nil, nil)
	end := drain(t, c, 0, 1000)
	if end < 36 || end > 60 {
		t.Errorf("10 ALU instructions drained at cycle %d, want ~40", end)
	}
	st := c.Stats()
	if st.Instructions != 10 {
		t.Errorf("Instructions = %d, want 10", st.Instructions)
	}
	if st.WarpsCompleted != 1 || st.BlocksCompleted != 1 {
		t.Errorf("completion counts = %+v", st)
	}
}

func TestIMulFDivCosts(t *testing.T) {
	b := kernel.NewBuilder("heavy")
	r := b.IMul()
	r = b.FDiv(r)
	_ = r
	spec := testSpec(t, b.MustBuild(), 1, 1, 1)
	c := newCore(t, spec, nil, nil)
	end := drain(t, c, 0, 1000)
	// The IMUL occupies issue for 16 cycles, so the FDiv (the final
	// instruction) cannot issue before cycle 16.
	if end < 16 || end > 24 {
		t.Errorf("FDiv issued at %d, want ~16 (after the IMUL's occupancy)", end)
	}
}

func TestLoadStallsAtUse(t *testing.T) {
	spec := testSpec(t, loadUse(), 1, 1, 1)
	c := newCore(t, spec, nil, nil)
	const lat = 200
	end := drain(t, c, lat, 10_000)
	if end < lat {
		t.Errorf("single warp finished at %d, before the %d-cycle load returned", end, lat)
	}
	st := c.Stats()
	if st.MemInstrs != 1 {
		t.Errorf("MemInstrs = %d, want 1", st.MemInstrs)
	}
	if st.DemandTransactions != 2 { // coalesced 4B x 32 lanes = 2 blocks
		t.Errorf("DemandTransactions = %d, want 2", st.DemandTransactions)
	}
}

func TestMultithreadingHidesLatency(t *testing.T) {
	// With many warps, total time should be far below warps x latency.
	const warps = 8
	spec := testSpec(t, loadUse(), warps, 1, 1)
	c := newCore(t, spec, nil, nil)
	const lat = 100
	end := drain(t, c, lat, 100_000)
	serial := uint64(warps * lat)
	if end >= serial {
		t.Errorf("8 warps drained at %d, not faster than serial %d", end, serial)
	}
	if got := c.Stats().WarpsCompleted; got != warps {
		t.Errorf("WarpsCompleted = %d, want %d", got, warps)
	}
}

func TestSwitchOnStallStaggering(t *testing.T) {
	// Warp 0 must issue all its independent work before warp 1 starts:
	// with 2 warps of pure compute, instructions interleave per-warp
	// blocks, not round-robin. We detect this via completion order: warp
	// 0 finishes strictly first even though both are ready every cycle.
	spec := testSpec(t, computeOnly(5), 2, 1, 1)
	c := newCore(t, spec, nil, nil)
	drain(t, c, 0, 1000)
	// Indirect check: total time ~ 2x5x4 = 40 (serialised issue), and
	// both warps complete.
	if got := c.Stats().WarpsCompleted; got != 2 {
		t.Errorf("WarpsCompleted = %d", got)
	}
}

func TestBlockTurnover(t *testing.T) {
	// 4 blocks, occupancy 1: blocks run one after another.
	spec := testSpec(t, computeOnly(3), 2, 4, 1)
	c := newCore(t, spec, nil, nil)
	drain(t, c, 0, 10_000)
	st := c.Stats()
	if st.BlocksCompleted != 4 || st.WarpsCompleted != 8 {
		t.Errorf("blocks=%d warps=%d, want 4/8", st.BlocksCompleted, st.WarpsCompleted)
	}
}

func TestPerfectMemoryNeverStalls(t *testing.T) {
	spec := testSpec(t, loadUse(), 2, 1, 1)
	c, err := New(Options{
		ID: 0, Config: config.Baseline(), Spec: spec,
		Blocks: &blockList{total: 1}, PerfectMem: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := drain(t, c, 1_000_000, 1000) // memory would never respond
	// 2 warps x 3 instrs x 4 cycles = 24.
	if end > 40 {
		t.Errorf("perfect-memory run took %d cycles", end)
	}
	if c.MRQ.Outstanding() != 0 {
		t.Error("perfect memory generated MRQ traffic")
	}
}

func TestScoreboardWAWBlocksSecondLoad(t *testing.T) {
	// Two loads into the same register (software pipelining): the second
	// must wait for the first fill.
	b := kernel.NewBuilder("waw")
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 4})
	b.Compute(1, v)
	prog := b.MustBuild()
	// Manually append a load writing the same register.
	prog.Instrs = append(prog.Instrs, kernel.Instr{
		Op: kernel.OpLoad, Dst: v,
		Mem: &kernel.Access{Array: 0, LaneStrideB: 4, Offset: 1 << 16},
	})
	spec := testSpec(t, prog, 1, 1, 1)
	c := newCore(t, spec, nil, nil)
	const lat = 300
	end := drain(t, c, lat, 10_000)
	if end < 2*lat {
		t.Errorf("WAW loads drained at %d, want >= %d (serialised)", end, 2*lat)
	}
}

func TestSWPrefetchFillsCache(t *testing.T) {
	b := kernel.NewBuilder("pf")
	b.Prefetch(kernel.Access{Array: 0, LaneStrideB: 4})
	b.Compute(30, kernel.NoReg) // time for the prefetch to land
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 4})
	b.Compute(1, v)
	spec := testSpec(t, b.MustBuild(), 1, 1, 1)
	c := newCore(t, spec, nil, nil)
	end := drain(t, c, 100, 10_000)
	st := c.Stats()
	if st.PrefetchInstrs != 1 {
		t.Fatalf("PrefetchInstrs = %d, want 1", st.PrefetchInstrs)
	}
	if st.PrefetchesIssued != 2 {
		t.Fatalf("PrefetchesIssued = %d, want 2 (two blocks)", st.PrefetchesIssued)
	}
	if st.PFCacheHitTransactions != 2 {
		t.Errorf("PFCacheHitTransactions = %d, want 2 (load fully covered)", st.PFCacheHitTransactions)
	}
	// The covered run must be issue-bound: ~33 instructions x 4 cycles
	// plus the prefetch wait is hidden by compute.
	if end > 250 {
		t.Errorf("covered run took %d cycles", end)
	}
}

func TestLatePrefetchMerges(t *testing.T) {
	b := kernel.NewBuilder("late")
	b.Prefetch(kernel.Access{Array: 0, LaneStrideB: 4})
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 4}) // immediately after
	b.Compute(1, v)
	spec := testSpec(t, b.MustBuild(), 1, 1, 1)
	c := newCore(t, spec, nil, nil)
	drain(t, c, 200, 10_000)
	st := c.Stats()
	if st.LatePrefetches == 0 {
		t.Error("demand right behind prefetch should be counted late")
	}
	if got := c.MRQ.Stats().DemandIntoPrefetch; got == 0 {
		t.Error("no demand-into-prefetch merges recorded")
	}
	// Late prefetches still land in the cache, marked used: no early
	// eviction accounting later.
	if got := c.PFCache.Stats().FirstUses; got == 0 {
		t.Error("late prefetch fill not marked used")
	}
}

func TestHWPrefetcherTrainsAndIssues(t *testing.T) {
	// A strided loop load should train the PWS table and emit prefetches.
	b := kernel.NewBuilder("stride")
	b.BeginLoop(8)
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 4, IterStrideB: 4096})
	b.Compute(3, v)
	b.EndLoop()
	spec := testSpec(t, b.MustBuild(), 1, 1, 1)
	hwp := prefetch.NewMTHWP(prefetch.MTHWPOptions{})
	c := newCore(t, spec, hwp, nil)
	drain(t, c, 50, 100_000)
	st := c.Stats()
	if st.PrefetchesGenerated == 0 {
		t.Fatal("hardware prefetcher generated nothing on a strided loop")
	}
	if hwp.Stats().PWSHits == 0 {
		t.Error("PWS never hit")
	}
}

func TestThrottleDegree5DropsPrefetches(t *testing.T) {
	b := kernel.NewBuilder("pf")
	b.BeginLoop(16)
	b.Prefetch(kernel.Access{Array: 0, LaneStrideB: 4, IterStrideB: 4096, IterAhead: 1})
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 4, IterStrideB: 4096})
	b.Compute(2, v)
	b.EndLoop()
	spec := testSpec(t, b.MustBuild(), 1, 1, 1)
	eng := throttle.New(throttle.Config{InitDegree: 5})
	c := newCore(t, spec, nil, eng)
	drain(t, c, 50, 100_000)
	st := c.Stats()
	if st.DroppedThrottle == 0 {
		t.Error("degree-5 throttle dropped nothing")
	}
	if st.PrefetchesIssued > st.PrefetchesGenerated/8 {
		t.Errorf("throttle leaked: issued %d of %d", st.PrefetchesIssued, st.PrefetchesGenerated)
	}
}

func TestUncoalescedTransactionCount(t *testing.T) {
	b := kernel.NewBuilder("uncoal")
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 64})
	b.Compute(1, v)
	spec := testSpec(t, b.MustBuild(), 1, 1, 1)
	c := newCore(t, spec, nil, nil)
	drain(t, c, 50, 100_000)
	if got := c.Stats().DemandTransactions; got != 32 {
		t.Errorf("DemandTransactions = %d, want 32", got)
	}
}

func TestDemandCapReservesPrefetchRoom(t *testing.T) {
	cfg := config.Baseline()
	if cfg.MRQSize-cfg.MRQPrefetchReserve >= cfg.MRQSize {
		t.Fatal("config reserve is zero; test is vacuous")
	}
	// An uncoalesced load (32 txs) against demandCap 32 fits exactly;
	// two warps' loads cannot be outstanding at once.
	b := kernel.NewBuilder("cap")
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 64})
	b.Compute(1, v)
	spec := testSpec(t, b.MustBuild(), 2, 1, 1)
	c := newCore(t, spec, nil, nil)
	// Never fill: after both warps try to issue, outstanding demand must
	// not exceed the demand cap.
	for cyc := uint64(0); cyc < 100; cyc++ {
		c.Cycle(cyc)
		for c.MRQ.NextSend() != nil {
			c.PopSend(cyc)
		}
	}
	if out := c.MRQ.Outstanding(); out > cfg.MRQSize-cfg.MRQPrefetchReserve {
		t.Errorf("demand outstanding = %d exceeds demand cap %d",
			out, cfg.MRQSize-cfg.MRQPrefetchReserve)
	}
}

func TestIdleAndRetire(t *testing.T) {
	spec := testSpec(t, loadUse(), 2, 2, 2)
	c := newCore(t, spec, nil, nil)
	if c.Idle() {
		t.Fatal("core idle before running")
	}
	drain(t, c, 20, 10_000)
	if !c.Idle() {
		t.Fatal("core not idle after drain")
	}
}

func TestRoundRobinScheduler(t *testing.T) {
	cfg := config.Baseline()
	cfg.Scheduler = config.RoundRobin
	spec := testSpec(t, computeOnly(6), 4, 1, 1)
	c, err := New(Options{ID: 0, Config: cfg, Spec: spec, Blocks: &blockList{total: 1}})
	if err != nil {
		t.Fatal(err)
	}
	end := drain(t, c, 0, 10_000)
	if got := c.Stats().WarpsCompleted; got != 4 {
		t.Errorf("WarpsCompleted = %d, want 4", got)
	}
	// Issue-bound either way: 4 warps x 6 instrs x 4 cycles.
	if end < 90 || end > 120 {
		t.Errorf("round-robin drained at %d, want ~96", end)
	}
}

func TestPollutionFilterWiring(t *testing.T) {
	// A kernel that prefetches a stream it never reads: every prefetch is
	// eventually early-evicted, so the filter must start dropping.
	b := kernel.NewBuilder("bad")
	b.BeginLoop(64)
	b.Prefetch(kernel.Access{Array: 0, LaneStrideB: 64, IterStrideB: 64 * 64})
	v := b.Load(kernel.Access{Array: 1, LaneStrideB: 4, IterStrideB: 128})
	b.Compute(1, v)
	b.EndLoop()
	spec := testSpec(t, b.MustBuild(), 2, 1, 1)
	c, err := New(Options{
		ID: 0, Config: config.Baseline(), Spec: spec,
		Blocks: &blockList{total: 1},
		Filter: prefetch.NewPollutionFilter(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, c, 60, 200_000)
	if got := c.Stats().DroppedByFilter; got == 0 {
		t.Error("filter never dropped a useless prefetch stream")
	}
}

// TestRelaunchedWarpRecoalesces: a warp slot reused by a new block must
// request its new warp's blocks. The relaunched warp's first memory
// instruction has the same (pc, iter) as its predecessor's last one, so
// a transaction memo that survived the relaunch would replay the old
// warp's addresses under the new warp id.
func TestRelaunchedWarpRecoalesces(t *testing.T) {
	b := kernel.NewBuilder("one")
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 64})
	b.Compute(4, v)
	spec := testSpec(t, b.MustBuild(), 2, 3, 1)
	c := newCore(t, spec, nil, nil)
	got := map[int]map[uint64]bool{}
	drainSent(t, c, 50, 100_000, func(r *memreq.Request) {
		if got[r.WarpID] == nil {
			got[r.WarpID] = map[uint64]bool{}
		}
		got[r.WarpID][r.Addr] = true
	})
	cfg := config.Baseline()
	acc := spec.Program.Instrs[0].Mem
	for gwid := 0; gwid < spec.TotalWarps; gwid++ {
		want := acc.Transactions(gwid, cfg.WarpSize, 0, cfg.BlockBytes, nil)
		if len(got[gwid]) != len(want) {
			t.Errorf("warp %d requested %d blocks, want %d", gwid, len(got[gwid]), len(want))
		}
		for _, addr := range want {
			if !got[gwid][addr] {
				t.Errorf("warp %d never requested its block %#x", gwid, addr)
				break
			}
		}
	}
}
