package smcore

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/kernel"
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/prefetch"
	"mtprefetch/internal/simerr"
	"mtprefetch/internal/throttle"
)

// parkRig drives one core against a memory whose latency is a fixed
// function of the request, so two cores that send the same requests see
// the same fills. With retry set it clears the core's ghosts after every
// wake, so every warp in issueMask is tried, as the scan did before
// stall-cause parking.
type parkRig struct {
	c        *Core
	cpi      *obs.CoreCPI
	retry    bool
	inflight []parkFill
	sent     []string // this cycle's sends
	ghosts   int      // ghosts the wakes made, summed over cycles
}

type parkFill struct {
	at  uint64
	req *memreq.Request
}

func newParkRig(t *testing.T, cfg *config.Config, prog *kernel.Program, hwp prefetch.Prefetcher, retry bool) *parkRig {
	t.Helper()
	spec := testSpec(t, prog, 8, 6, 2)
	var eng *throttle.Engine
	if hwp != nil {
		eng = throttle.New(throttle.Config{InitDegree: 1})
	}
	c, err := New(Options{ID: 0, Config: cfg, Spec: spec, Blocks: &blockList{total: spec.Blocks}, HWP: hwp, Throttle: eng})
	if err != nil {
		t.Fatal(err)
	}
	r := &parkRig{c: c, cpi: new(obs.CoreCPI), retry: retry}
	c.AttachCPI(r.cpi)
	return r
}

// latency spreads fills over 40..136 cycles by address, so fills return
// out of order and capacity stalls release one entry at a time.
func latency(r *memreq.Request) uint64 { return 40 + (r.Addr>>6)*2654435761%97 }

func (r *parkRig) step(cyc uint64) error {
	kept := r.inflight[:0]
	for _, f := range r.inflight {
		if f.at > cyc {
			kept = append(kept, f)
			continue
		}
		r.c.Fill(cyc, f.req)
		if r.retry {
			clear(r.c.ghost)
		}
	}
	r.inflight = kept
	for _, w := range r.c.ghost {
		r.ghosts += bits.OnesCount64(w)
	}
	if err := r.c.Cycle(cyc); err != nil {
		return err
	}
	r.sent = r.sent[:0]
	for {
		req := r.c.PopSend(cyc)
		if req == nil {
			break
		}
		r.sent = append(r.sent, fmt.Sprintf("%v@%#x/w%d", req.Kind, req.Addr, req.WarpID))
		if req.Kind == memreq.Writeback {
			if r.retry {
				clear(r.c.ghost)
			}
			continue
		}
		r.inflight = append(r.inflight, parkFill{at: cyc + latency(req), req: req})
	}
	return nil
}

// parkKernels are the programs the differential test runs: capacity
// stalls on uncoalesced loads and stores, scoreboard stalls on chained
// loads, and prefetch-cache hits (software and hardware prefetching)
// that move the cache generation under parked loads.
func parkKernels() map[string]*kernel.Program {
	progs := map[string]*kernel.Program{}

	b := kernel.NewBuilder("uncoal-store")
	b.BeginLoop(3)
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 64, IterStrideB: 4096})
	v = b.Compute(2, v)
	b.Store(kernel.Access{Array: 3, LaneStrideB: 16, IterStrideB: 512}, v)
	b.EndLoop()
	progs["uncoal-store"] = b.MustBuild()

	b = kernel.NewBuilder("chained")
	b.BeginLoop(4)
	x := b.Load(kernel.Access{Array: 0, LaneStrideB: 4, IterStrideB: 128})
	y := b.Load(kernel.Access{Array: 1, LaneStrideB: 16, IterStrideB: 512})
	b.Compute(1, b.ALU(x, y))
	b.EndLoop()
	progs["chained"] = b.MustBuild()

	b = kernel.NewBuilder("swpf")
	b.BeginLoop(6)
	b.Prefetch(kernel.Access{Array: 0, LaneStrideB: 64, IterStrideB: 2048, IterAhead: 1, Span: 1 << 16})
	v = b.Load(kernel.Access{Array: 0, LaneStrideB: 64, IterStrideB: 2048, Span: 1 << 16})
	b.Compute(1, v)
	b.EndLoop()
	progs["swpf"] = b.MustBuild()

	b = kernel.NewBuilder("shared-hash")
	b.BeginLoop(4)
	x = b.Load(kernel.Access{Array: 0, LaneStrideB: 16, IterStrideB: 256, WarpPeriod: 4})
	y = b.Load(kernel.Access{Array: 1, LaneStrideB: 64, Hash: true, Span: 1 << 15})
	b.Store(kernel.Access{Array: 2, LaneStrideB: 64, IterStrideB: 2048}, b.ALU(x, y))
	b.EndLoop()
	progs["shared-hash"] = b.MustBuild()
	return progs
}

// TestParkingMatchesRetries holds stall-cause parking to the scan it
// replaced: a core that passes its ghosts and a core that tries every
// warp after every wake issue the same instructions on the same cycles,
// send the same requests, and keep the same counters, CPI buckets,
// issue index and next event on every cycle. The parking invariants
// hold throughout.
func TestParkingMatchesRetries(t *testing.T) {
	// Room for one uncoalesced load and little for prefetches.
	small := config.Baseline()
	small.MRQSize, small.MRQPrefetchReserve = 36, 4
	cfgs := map[string]*config.Config{"baseline": config.Baseline(), "small-mrq": small}
	for kname, prog := range parkKernels() {
		for cname, cfg := range cfgs {
			for _, hw := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/hwp=%v", kname, cname, hw), func(t *testing.T) {
					var hwpA, hwpB prefetch.Prefetcher
					if hw {
						hwpA = prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
						hwpB = prefetch.NewMTHWP(prefetch.MTHWPOptions{EnableGS: true, EnableIP: true})
					}
					got := newParkRig(t, cfg, prog, hwpA, false)
					want := newParkRig(t, cfg, prog, hwpB, true)
					for cyc := uint64(0); ; cyc++ {
						if cyc > 200_000 {
							t.Fatalf("core did not drain: %+v issuable=%d active=%x issue=%x ghost=%x sb=%x mrq=%x need=%d inflight=%d", got.c.Diag(), got.c.issuable, got.c.activeMask, got.c.issueMask, got.c.ghost, got.c.parkSB, got.c.parkMRQ, got.c.mrqNeed, len(got.inflight))
						}
						if err := got.step(cyc); err != nil {
							t.Fatal(err)
						}
						if err := want.step(cyc); err != nil {
							t.Fatal(err)
						}
						if err := got.c.CheckInvariants(cyc); err != nil {
							t.Fatal(err)
						}
						if d := parkDiff(got, want, cyc); d != "" {
							t.Fatalf("cycle %d: %s", cyc, d)
						}
						if got.c.Idle() && len(got.inflight) == 0 {
							break
						}
					}
					if got.ghosts == 0 {
						t.Error("no warp was ever a ghost; the run exercises nothing")
					}
				})
			}
		}
	}
}

// parkDiff names the first observable difference between two rigs.
func parkDiff(got, want *parkRig, cyc uint64) string {
	g, w := got.c, want.c
	switch {
	case !reflect.DeepEqual(g.Stats(), w.Stats()):
		return fmt.Sprintf("stats %+v, want %+v", g.Stats(), w.Stats())
	case !reflect.DeepEqual(got.sent, want.sent):
		return fmt.Sprintf("sent %v, want %v", got.sent, want.sent)
	case g.issuable != w.issuable || g.rr != w.rr || !reflect.DeepEqual(g.issueMask, w.issueMask):
		return fmt.Sprintf("issue index %x/%d rr %d, want %x/%d rr %d", g.issueMask, g.issuable, g.rr, w.issueMask, w.issuable, w.rr)
	case g.NextEvent(cyc) != w.NextEvent(cyc):
		return fmt.Sprintf("next event %d, want %d", g.NextEvent(cyc), w.NextEvent(cyc))
	case *got.cpi != *want.cpi:
		return fmt.Sprintf("CPI buckets %v, want %v", got.cpi.Buckets, want.cpi.Buckets)
	}
	return ""
}

// TestCacheInsertReleasesCapacityPark: a load parked on capacity while
// the prefetch cache was empty needs every transaction's room, but a
// prefetch fill of one of its blocks lowers that below the room the fill
// freed. Only the cache generation says so, so the wake must release it.
func TestCacheInsertReleasesCapacityPark(t *testing.T) {
	b := kernel.NewBuilder("gen")
	x := b.Load(kernel.Access{Array: 0, LaneStrideB: 64}) // 32 blocks: the demand cap
	b.Prefetch(kernel.Access{Array: 1, LaneStrideB: 4})   // 2 blocks, into the reserve
	y := b.Load(kernel.Access{Array: 1, LaneStrideB: 4})  // the prefetched blocks
	b.ALU(x, y)
	c := newCore(t, testSpec(t, b.MustBuild(), 1, 1, 1), nil, nil)
	var demands, prefetches []*memreq.Request
	cyc := uint64(0)
	for ; c.issuable > 0 || cyc < c.issueBusyUntil; cyc++ {
		if err := c.Cycle(cyc); err != nil {
			t.Fatal(err)
		}
		for r := c.PopSend(cyc); r != nil; r = c.PopSend(cyc) {
			if r.Kind == memreq.Prefetch {
				prefetches = append(prefetches, r)
			} else {
				demands = append(demands, r)
			}
		}
	}
	if len(demands) != 32 || len(prefetches) != 2 || c.stats.MemInstrs != 1 || c.mrqNeed != 2 {
		t.Fatalf("setup: %d demands, %d prefetches, %d memory instructions, need %d; want 32, 2, 1, 2",
			len(demands), len(prefetches), c.stats.MemInstrs, c.mrqNeed)
	}
	// Two demand fills bring the room to 0: still short of the need.
	for _, r := range demands[:2] {
		c.Fill(cyc, r)
		if err := c.Cycle(cyc); err != nil {
			t.Fatal(err)
		}
		cyc++
	}
	if c.stats.MemInstrs != 1 {
		t.Fatal("the second load issued without room")
	}
	// The prefetch fill frees one entry and caches one of the load's two
	// blocks: one miss, one entry of room.
	c.Fill(cyc, prefetches[0])
	if err := c.CheckInvariants(cyc); err != nil {
		t.Fatal(err)
	}
	if err := c.Cycle(cyc); err != nil {
		t.Fatal(err)
	}
	if c.stats.MemInstrs != 2 {
		t.Error("a prefetch-cache insert that lets a parked load fit did not release it")
	}
}

// parkedCore returns a core whose eight warps are all parked, warps 0-3
// on the scoreboard (each waits on its own load) and warps 4-7 on MRQ
// capacity, as ghosts after a wake that freed nothing they need.
func parkedCore(t *testing.T) *Core {
	t.Helper()
	b := kernel.NewBuilder("parked")
	v := b.Load(kernel.Access{Array: 0, LaneStrideB: 16}) // 8 blocks
	b.ALU(v)
	c := newCore(t, testSpec(t, b.MustBuild(), 8, 1, 1), nil, nil)
	for cyc := uint64(0); c.issuable > 0 || cyc < c.issueBusyUntil; cyc++ {
		if err := c.Cycle(cyc); err != nil {
			t.Fatal(err)
		}
	}
	// Warps 0-3 loaded 32 blocks, the demand cap; 4-7 are parked on
	// capacity and 0-3 on the scoreboard.
	if c.stats.MemInstrs != 4 || c.parkMRQ[0] != 0xf0 || c.parkSB[0] != 0x0f {
		t.Fatalf("setup: %d loads, parkSB %#x, parkMRQ %#x", c.stats.MemInstrs, c.parkSB[0], c.parkMRQ[0])
	}
	c.wake() // a wake that releases nothing: all eight become ghosts
	if c.ghost[0] != 0xff {
		t.Fatalf("setup: ghosts %#x, want 0xff", c.ghost[0])
	}
	if err := c.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDropFillReleasesCapacityGhosts: a dropped completion (fault
// injection) frees MRQ room without a wake, so a capacity ghost whose
// access now fits must be tried, as it was before parking.
func TestDropFillReleasesCapacityGhosts(t *testing.T) {
	c := parkedCore(t)
	const cyc = 100
	for i := 0; i < 8; i++ { // room for one parked 8-block load
		c.DropFill(c.PopSend(cyc))
	}
	if err := c.checkParking(cyc); err != nil {
		t.Fatal(err)
	}
	if err := c.Cycle(cyc); err != nil {
		t.Fatal(err)
	}
	if c.stats.MemInstrs != 5 {
		t.Errorf("%d loads issued after the dropped completions, want 5", c.stats.MemInstrs)
	}
}

// TestCheckParkingCatchesCorruption corrupts, one at a time, each
// property checkParking guards and expects its named invariant error.
func TestCheckParkingCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(c *Core)
	}{
		// Warp 0 leaves the issue index but stays a ghost.
		{"ghost-issue", func(c *Core) { c.issueMask[0] &^= 1; c.issuable-- }},
		// Warp 2 is a ghost though nothing parked it.
		{"ghost-park", func(c *Core) { c.parkSB[0] &^= 1 << 2 }},
		// Warp 5 is parked on both causes.
		{"park-exclusive", func(c *Core) { c.parkSB[0] |= 1 << 5 }},
		// A park bit on a slot with no warp.
		{"park-active", func(c *Core) { c.parkMRQ[0] |= 1 << 9 }},
		// Warp 1's pending fills move to a register its instruction
		// does not read: the scoreboard balance holds, the stall is gone.
		{"ghost-scoreboard", func(c *Core) {
			sb := c.pending[1*c.numRegs : 2*c.numRegs]
			v, d := c.prog.Instrs[0].Dst, c.prog.Instrs[1].Dst
			sb[d], sb[v] = sb[v], 0
		}},
		// Room for every parked load appears without a release.
		{"ghost-capacity", func(c *Core) { c.cfg.MRQPrefetchReserve = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := parkedCore(t)
			tc.corrupt(c)
			err := c.CheckInvariants(7)
			var ie *simerr.InvariantError
			if !errors.As(err, &ie) || ie.Component != "smcore" || ie.Name != tc.name || ie.Cycle != 7 {
				t.Fatalf("CheckInvariants = %v, want smcore %s at cycle 7", err, tc.name)
			}
		})
	}
}
