package prefetch

import (
	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
)

// MT-HWP's table sizes: the evaluated configuration that Table VI costs.
const (
	PWSEntries = 32
	GSEntries  = 8
	IPEntries  = 8
)

// MTHWP is the paper's many-thread aware hardware prefetcher (Section
// III-B, Fig. 6). It combines three tables:
//
//   - PWS (Per-Warp Stride, 32 entries): a stride prefetcher trained per
//     (PC, warp id), immune to the warp-interleaving noise of Fig. 5.
//   - GS (Global Stride, 8 entries): when at least three warps agree on
//     the same stride for one PC, the (PC, stride) pair is promoted to the
//     GS table; yet-to-be-trained warps then prefetch immediately and,
//     crucially, skip the PWS lookup entirely (the power/scalability
//     argument of Section VIII-B).
//   - IP (Inter-thread Prefetching, 8 entries): detects constant strides
//     *across warps* at the same PC — the loop-free, massively-parallel
//     pattern where one thread can prefetch for the corresponding thread
//     of a later warp.
//
// Priority on a hit: GS first (promoted strides are better trained),
// then PWS, then IP.
type MTHWP struct {
	pws *table[key2, strideState]
	gs  *table[int, int64]
	ip  *table[int, ipState]

	enableGS bool
	enableIP bool

	distance int

	trace      *obs.Tracer // nil: promotion tracing disabled
	traceTrack int

	stats MTHWPStats
}

type ipState struct {
	lastWid  int
	lastAddr uint64
	stride   int64 // address delta per warp
	conf     int
}

// MTHWPStats counts per-table activity; PWSAccesses vs GSHits backs the
// Section VIII-B claim that the GS table removes most PWS lookups.
type MTHWPStats struct {
	Observations uint64
	PWSAccesses  uint64 // PWS lookups performed
	PWSHits      uint64 // prefetches generated from PWS
	GSHits       uint64 // prefetches generated from GS (PWS lookup skipped)
	IPHits       uint64 // prefetches generated from IP
	Promotions   uint64 // (PC, stride) pairs promoted into GS
}

// MTHWPOptions selects which tables run beside PWS and the prefetch
// distance; the zero value is PWS alone at distance 1.
type MTHWPOptions struct {
	EnableGS bool
	EnableIP bool
	Distance int // strides ahead (Fig. 17); 0 selects Distance
}

// NewMTHWP builds an MT-HWP instance.
func NewMTHWP(o MTHWPOptions) *MTHWP {
	if o.Distance == 0 {
		o.Distance = Distance
	}
	return &MTHWP{
		pws:      newTable[key2, strideState](PWSEntries),
		gs:       newTable[int, int64](GSEntries),
		ip:       newTable[int, ipState](IPEntries),
		enableGS: o.EnableGS,
		enableIP: o.EnableIP,
		distance: o.Distance,
	}
}

// Stats returns a snapshot of per-table counters.
func (p *MTHWP) Stats() MTHWPStats { return p.stats }

// Register wires the per-table counters into the registry.
func (p *MTHWP) Register(r *obs.Registry, l obs.Labels) {
	st := &p.stats
	r.CounterU64("mthwp.observations", l, &st.Observations)
	r.CounterU64("mthwp.pws_accesses", l, &st.PWSAccesses)
	r.CounterU64("mthwp.pws_hits", l, &st.PWSHits)
	r.CounterU64("mthwp.gs_hits", l, &st.GSHits)
	r.CounterU64("mthwp.ip_hits", l, &st.IPHits)
	r.CounterU64("mthwp.promotions", l, &st.Promotions)
}

// SetTrace enables stride-promotion events on tr under the given track
// (the owning core's id).
func (p *MTHWP) SetTrace(tr *obs.Tracer, track int) {
	p.trace = tr
	p.traceTrack = track
}

// promotionThreshold is the number of PWS entries for one PC that must
// agree on a stride before it is promoted to the GS table.
const promotionThreshold = 3

// ipTrainThreshold: "we train the IP table until three accesses from the
// same PC and different warps have the same stride" — three accesses give
// two consistent deltas.
const ipTrainThreshold = 2

// Observe implements Prefetcher.
func (p *MTHWP) Observe(t Train, out []Candidate) []Candidate {
	p.stats.Observations++
	// Cycle 0: GS (and IP) indexed in parallel by PC; a GS hit wins and
	// skips the PWS lookup entirely.
	if p.enableGS {
		if stride, ok := p.gs.get(t.PC); ok {
			p.stats.GSHits++
			if p.enableIP {
				p.trainIP(t) // IP keeps training; no extra generation
			}
			return genStride(memreq.SrcGS, t.Addr, *stride, p.distance, Degree, t.Footprint, out)
		}
	}
	// Cycle 1: PWS.
	p.stats.PWSAccesses++
	k := key2{t.PC, t.WarpID}
	st, ok := p.pws.get(k)
	pwsTrained := false
	if !ok {
		p.pws.put(k, strideState{lastAddr: t.Addr})
	} else {
		pwsTrained = st.observe(t.Addr)
	}
	var ipHit bool
	var ipStride int64
	if p.enableIP {
		ipHit, ipStride = p.trainIP(t)
	}
	if pwsTrained {
		p.stats.PWSHits++
		if p.enableGS {
			p.maybePromote(t.PC, t.Cycle, st.stride)
		}
		return genStride(memreq.SrcPWS, t.Addr, st.stride, p.distance, Degree, t.Footprint, out)
	}
	if ipHit {
		p.stats.IPHits++
		return genStride(memreq.SrcHWIP, t.Addr, ipStride, p.distance, Degree, t.Footprint, out)
	}
	return out
}

// trainIP updates the IP table and reports whether a trained cross-warp
// stride is available for generation.
func (p *MTHWP) trainIP(t Train) (bool, int64) {
	st, ok := p.ip.get(t.PC)
	if !ok {
		p.ip.put(t.PC, ipState{lastWid: t.WarpID, lastAddr: t.Addr})
		return false, 0
	}
	widDelta := t.WarpID - st.lastWid
	if widDelta == 0 {
		// Same warp again (a loop iteration); refresh the anchor.
		st.lastAddr = t.Addr
		return st.conf >= ipTrainThreshold, st.stride
	}
	addrDelta := int64(t.Addr) - int64(st.lastAddr)
	if addrDelta%int64(widDelta) == 0 {
		s := addrDelta / int64(widDelta)
		if s == st.stride && s != 0 {
			if st.conf < 4 {
				st.conf++
			}
		} else {
			st.stride = s
			st.conf = s2conf(s)
		}
	} else {
		st.conf = 0
	}
	st.lastWid = t.WarpID
	st.lastAddr = t.Addr
	return st.conf >= ipTrainThreshold, st.stride
}

// s2conf starts a fresh stride at confidence 1 (first delta observed), or
// 0 for a degenerate zero stride.
func s2conf(s int64) int {
	if s == 0 {
		return 0
	}
	return 1
}

// maybePromote scans the (small) PWS table and promotes (pc, stride) to
// the GS table when enough warps agree.
func (p *MTHWP) maybePromote(pc int, cycle uint64, stride int64) {
	if _, ok := p.gs.peek(pc); ok {
		return
	}
	agree := 0
	for e := p.pws.head; e != nil; e = e.next {
		if e.key.a == pc && e.val.conf >= 1 && e.val.stride == stride {
			agree++
			if agree >= promotionThreshold {
				p.gs.put(pc, stride)
				p.stats.Promotions++
				p.trace.Emit(obs.EvStridePromotion, cycle, p.traceTrack, uint64(pc), stride)
				return
			}
		}
	}
}
