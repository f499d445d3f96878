package prefetch

import "mtprefetch/internal/memreq"

// Stride RPT's Table V geometry.
const (
	StrideRPTEntries    = 1024
	StrideRPTRegionBits = 16 // log2 of the region size in bytes (64KB)
)

// StrideRPT is the region-based stride prefetcher of Table V ("Stride RPT",
// 1024-entry, 16 region bits): training state is indexed by the memory
// region an access falls in rather than by PC. The enhanced form
// additionally separates regions per warp id.
type StrideRPT struct {
	tab       *table[key2, strideState]
	warpAware bool
}

// StrideRPTOptions configures a StrideRPT prefetcher.
type StrideRPTOptions struct {
	WarpAware bool
}

// NewStrideRPT builds a region-stride prefetcher.
func NewStrideRPT(o StrideRPTOptions) *StrideRPT {
	return &StrideRPT{
		tab:       newTable[key2, strideState](StrideRPTEntries),
		warpAware: o.WarpAware,
	}
}

// Observe implements Prefetcher.
func (p *StrideRPT) Observe(t Train, out []Candidate) []Candidate {
	region := int(t.Addr >> StrideRPTRegionBits)
	k := key2{region, 0}
	if p.warpAware {
		k.b = t.WarpID
	}
	st, ok := p.tab.get(k)
	if !ok {
		p.tab.put(k, strideState{lastAddr: t.Addr})
		return out
	}
	if !st.observe(t.Addr) {
		return out
	}
	return genStride(memreq.SrcStrideRPT, t.Addr, st.stride, Distance, Degree, t.Footprint, out)
}
