package prefetch

import "mtprefetch/internal/memreq"

// GHB AC/DC's Table V sizes.
const (
	GHBEntries      = 1024 // history buffer entries
	GHBIndexEntries = 128  // index-table entries
	GHBCZoneBits    = 12   // log2 of the CZone size in bytes (4KB zones)
)

const (
	ghbMaxChain  = 16 // history entries one access walks
	ghbMaxDegree = 4  // GHB+F's degree ceiling; its floor is Degree
)

// GHB is the global history buffer prefetcher of Table V (Nesbit &
// Smith) in its AC/DC form: an n-entry FIFO of recent miss addresses
// threaded by linked lists, with the index table keyed by CZone (address
// region). On each access it rebuilds the zone's delta history and
// applies two-delta correlation to predict the next addresses; a
// repeating pair of deltas anywhere in the history replays the deltas
// that followed it.
//
// The enhanced form additionally separates streams per warp id.
type GHB struct {
	buf       [GHBEntries]ghbEntry // circular
	seq       uint64               // total pushes; buf[(seq-1) % len] is newest
	index     *table[key2, uint64]
	warpAware bool
	degree    int

	// Accuracy-directed feedback (GHB+F, Section VIII-C): degree rises
	// when prefetch accuracy is high and falls when it is low.
	feedback bool
}

type ghbEntry struct {
	addr uint64
	key  key2
	prev uint64 // seq of previous entry with same key; 0 = none
}

// GHBOptions configures a GHB prefetcher.
type GHBOptions struct {
	WarpAware bool
	Feedback  bool // enable accuracy-directed degree control (+F)
}

// NewGHB builds a GHB AC/DC prefetcher.
func NewGHB(o GHBOptions) *GHB {
	return &GHB{
		index:     newTable[key2, uint64](GHBIndexEntries),
		warpAware: o.WarpAware,
		degree:    Degree,
		feedback:  o.Feedback,
	}
}

// entryAt returns the buffer entry for a sequence number if it is still
// resident, i.e. not yet overwritten by the FIFO.
func (p *GHB) entryAt(seq uint64) (*ghbEntry, bool) {
	if seq == 0 || seq+uint64(len(p.buf)) <= p.seq {
		return nil, false
	}
	e := &p.buf[(seq-1)%uint64(len(p.buf))]
	return e, true
}

// Observe implements Prefetcher.
func (p *GHB) Observe(t Train, out []Candidate) []Candidate {
	k := key2{int(t.Addr >> GHBCZoneBits), 0}
	if p.warpAware {
		k.b = t.WarpID
	}
	var prev uint64
	if s, ok := p.index.get(k); ok {
		prev = *s
	}
	// Push the new head entry.
	p.seq++
	p.buf[(p.seq-1)%uint64(len(p.buf))] = ghbEntry{addr: t.Addr, key: k, prev: prev}
	p.index.put(k, p.seq)

	// Walk the chain, newest first, collecting addresses.
	var addrs [ghbMaxChain + 1]uint64
	n := 0
	addrs[n] = t.Addr
	n++
	for seq := prev; n <= ghbMaxChain; {
		e, ok := p.entryAt(seq)
		if !ok || e.key != k {
			break
		}
		addrs[n] = e.addr
		n++
		seq = e.prev
	}
	if n < 3 {
		return out
	}
	// Time-ordered deltas: with addrs newest-first, delta[i] is the step
	// taken *into* addrs[i]: delta[i] = addrs[i] - addrs[i+1].
	var deltas [ghbMaxChain]int64
	nd := n - 1
	for i := 0; i < nd; i++ {
		deltas[i] = int64(addrs[i]) - int64(addrs[i+1])
	}
	d0, d1 := deltas[0], deltas[1] // most recent pair (d1 happened, then d0)
	// Two-delta correlation: find the most recent earlier occurrence of
	// the pair (d1, d0) and replay the deltas that followed it.
	for j := 1; j+1 < nd; j++ {
		if deltas[j] == d0 && deltas[j+1] == d1 {
			base := int64(t.Addr)
			for i := 0; i < p.degree && j-1-i >= 0; i++ {
				base += deltas[j-1-i]
				if base <= 0 {
					break
				}
				out = genStride(memreq.SrcGHB, uint64(base), 0, 0, 1, t.Footprint, out)
			}
			return out
		}
	}
	// Constant-stride fallback when the two most recent deltas agree.
	if d0 == d1 && d0 != 0 {
		return genStride(memreq.SrcGHB, t.Addr, d0, Distance, p.degree, t.Footprint, out)
	}
	return out
}

// ApplyFeedback implements FeedbackPrefetcher for the +F variant.
func (p *GHB) ApplyFeedback(f Feedback) {
	if !p.feedback || f.Issued == 0 {
		return
	}
	acc := float64(f.Useful) / float64(f.Issued)
	switch {
	case acc > 0.5 && p.degree < ghbMaxDegree:
		p.degree++
	case acc < 0.25 && p.degree > Degree:
		p.degree--
	}
}

var _ FeedbackPrefetcher = (*GHB)(nil)
