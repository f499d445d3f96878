package prefetch

import "mtprefetch/internal/memreq"

// strideState is the classic stride-prefetcher training automaton
// (Chen & Baer / Fu, Patel, Janssens).
type strideState struct {
	lastAddr uint64
	stride   int64
	conf     int // consecutive confirmations of stride
}

// observe updates the automaton with a new address and reports whether the
// stride is confirmed (trained) for prefetch generation. A repeated
// address (delta 0) carries no stride information — sliding-window
// kernels re-touch blocks constantly — so it neither confirms nor resets.
func (s *strideState) observe(addr uint64) bool {
	delta := int64(addr) - int64(s.lastAddr)
	switch {
	case delta == 0:
		return s.conf >= 1
	case delta == s.stride:
		if s.conf < 4 {
			s.conf++
		}
	default:
		s.stride = delta
		s.conf = 0
	}
	s.lastAddr = addr
	return s.conf >= 1 // stride seen twice in a row
}

// StridePCEntries is StridePC's Table V table size.
const StridePCEntries = 1024

// StridePC is the per-PC stride prefetcher of Table V ("StridePC",
// 1024-entry). In naive form the table is indexed by PC alone, so the
// interleaved accesses of many warps at one PC destroy the stride (Fig. 5);
// the enhanced form indexes by (PC, warp id). The throttled variant
// ("StridePC+T", Section VIII-C) drops a fraction of generated prefetches
// proportional to the observed lateness of earlier prefetches.
type StridePC struct {
	tab       *table[key2, strideState]
	warpAware bool

	// Lateness-directed throttling (StridePC+T).
	throttled bool
	dropNum   int // drop dropNum out of every 4 candidates
	dropTick  int
}

// StridePCOptions configures a StridePC prefetcher.
type StridePCOptions struct {
	WarpAware bool // enhanced warp-id indexing
	Throttled bool // enable lateness-directed throttling (+T)
}

// NewStridePC builds a StridePC prefetcher.
func NewStridePC(o StridePCOptions) *StridePC {
	return &StridePC{
		tab:       newTable[key2, strideState](StridePCEntries),
		warpAware: o.WarpAware,
		throttled: o.Throttled,
	}
}

func (p *StridePC) key(t Train) key2 {
	if p.warpAware {
		return key2{t.PC, t.WarpID}
	}
	return key2{t.PC, 0}
}

// Observe implements Prefetcher.
func (p *StridePC) Observe(t Train, out []Candidate) []Candidate {
	k := p.key(t)
	st, ok := p.tab.get(k)
	if !ok {
		st, _ = p.tab.put(k, strideState{lastAddr: t.Addr})
		return out
	}
	if !st.observe(t.Addr) {
		return out
	}
	if p.throttled && p.dropNum > 0 {
		p.dropTick++
		if p.dropTick%4 < p.dropNum {
			return out
		}
	}
	return genStride(memreq.SrcStridePC, t.Addr, st.stride, Distance, Degree, t.Footprint, out)
}

// ApplyFeedback implements FeedbackPrefetcher for the +T variant: a high
// late fraction shrinks the number of prefetches issued.
func (p *StridePC) ApplyFeedback(f Feedback) {
	if !p.throttled || f.Issued == 0 {
		return
	}
	late := float64(f.Late) / float64(f.Issued)
	switch {
	case late > 0.5 && p.dropNum < 3:
		p.dropNum++
	case late < 0.1 && p.dropNum > 0:
		p.dropNum--
	}
}

var _ FeedbackPrefetcher = (*StridePC)(nil)
