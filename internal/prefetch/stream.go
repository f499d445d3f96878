package prefetch

import (
	"mtprefetch/internal/config"
	"mtprefetch/internal/memreq"
)

// Stream prefetcher geometry: Table V's 512 entries, trained on cache
// blocks within a 16-block matching window.
const (
	StreamEntries = 512
	streamWindow  = 16 // max block distance for an access to match a stream
)

// Stream is the stream prefetcher of Table V, in the style of Jouppi's
// stream buffers / the POWER5 prefetcher: it watches for accesses
// marching through a memory region in a constant direction and, once a
// direction is confirmed, runs ahead of the access stream.
type Stream struct {
	entries   [StreamEntries]streamEntry
	warpAware bool
	stamp     uint64
}

type streamEntry struct {
	valid     bool
	lastBlock uint64 // block number of the most recent matching access
	dir       int64  // +1 / -1, 0 while untrained
	conf      int
	warpID    int
	lru       uint64
}

// StreamOptions configures a Stream prefetcher.
type StreamOptions struct {
	WarpAware bool
}

// NewStream builds a stream prefetcher.
func NewStream(o StreamOptions) *Stream {
	return &Stream{warpAware: o.WarpAware}
}

// Observe implements Prefetcher.
func (p *Stream) Observe(t Train, out []Candidate) []Candidate {
	p.stamp++
	block := t.Addr / config.BlockBytes
	// Find the closest matching stream.
	best, bestDist := -1, uint64(streamWindow+1)
	for i := range p.entries {
		e := &p.entries[i]
		if !e.valid {
			continue
		}
		if p.warpAware && e.warpID != t.WarpID {
			continue
		}
		var d uint64
		if block > e.lastBlock {
			d = block - e.lastBlock
		} else {
			d = e.lastBlock - block
		}
		if d <= streamWindow && d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		// Allocate (LRU victim).
		victim := 0
		for i := range p.entries {
			if !p.entries[i].valid {
				victim = i
				break
			}
			if p.entries[i].lru < p.entries[victim].lru {
				victim = i
			}
		}
		p.entries[victim] = streamEntry{
			valid: true, lastBlock: block, warpID: t.WarpID, lru: p.stamp,
		}
		return out
	}
	e := &p.entries[best]
	e.lru = p.stamp
	var dir int64
	switch {
	case block > e.lastBlock:
		dir = 1
	case block < e.lastBlock:
		dir = -1
	default:
		return out // same block; no direction information
	}
	if e.dir == dir {
		if e.conf < 4 {
			e.conf++
		}
	} else {
		e.dir = dir
		e.conf = 0
	}
	e.lastBlock = block
	if e.conf < 1 {
		return out
	}
	return genStride(memreq.SrcStream, t.Addr, dir*config.BlockBytes, Distance, Degree, t.Footprint, out)
}
