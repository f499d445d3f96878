// Package cache implements the per-core prefetch cache: a set-associative,
// LRU-replaced block cache that additionally tracks whether each resident
// block has been used since it was prefetched.
//
// The early-eviction counter is the numerator of the paper's primary
// throttling metric (Eq. 5): a block evicted before its first use was a
// harmful prefetch — it consumed bandwidth and displaced useful blocks
// without ever serving a demand.
package cache

import (
	"fmt"

	"mtprefetch/internal/memreq"
	"mtprefetch/internal/obs"
	"mtprefetch/internal/simerr"
)

// Stats are the cache's lifetime counters. Accesses == Hits + Misses by
// construction; the invariant is asserted by the cross-component
// consistency tests.
type Stats struct {
	Accesses       uint64 // demand lookups
	Hits           uint64 // demand lookups that hit
	Misses         uint64 // demand lookups that missed
	Fills          uint64 // blocks inserted
	Evictions      uint64 // blocks displaced by fills
	EarlyEvictions uint64 // evicted before first use (harmful prefetches)
	FirstUses      uint64 // blocks used at least once (useful prefetches)
}

type line struct {
	tag   uint64
	valid bool
	used  bool
	lru   uint64 // last-touch stamp; higher = more recent
	prov  memreq.Provenance
}

// Cache is a set-associative block cache. The zero value is an always-miss
// cache (zero sets), which models a machine without a prefetch cache.
type Cache struct {
	sets      int
	ways      int
	blockBits uint
	setMask   uint64 // sets-1 when sets is a power of two, else 0
	occupied  int    // valid lines
	lines     []line // sets*ways, row-major by set
	stamp     uint64
	gen       uint64 // bumped whenever the resident set changes; see Gen
	stats     Stats
	pf        *obs.PFReport // nil: attribution disabled
}

// New builds a cache with the given geometry. sizeBytes of zero yields an
// always-miss cache.
func New(sizeBytes, ways, blockBytes int) *Cache {
	c := &Cache{ways: ways}
	for b := blockBytes; b > 1; b >>= 1 {
		c.blockBits++
	}
	if sizeBytes > 0 && ways > 0 {
		c.sets = sizeBytes / blockBytes / ways
		c.lines = make([]line, c.sets*ways)
		if c.sets&(c.sets-1) == 0 {
			c.setMask = uint64(c.sets - 1)
		}
	}
	return c
}

// Empty reports whether no block is resident; the hot demand path uses it
// to skip per-transaction lookups when prefetching is inactive.
func (c *Cache) Empty() bool { return c.occupied == 0 }

// Gen reports the resident-set generation: it changes whenever a block
// is inserted (FillProv's insert path, with or without a victim) or
// invalidated, and at no other time — Lookup, Contains and a duplicate
// fill leave it alone. Any residency answer computed at one generation
// therefore still holds while Gen returns the same value.
func (c *Cache) Gen() uint64 { return c.gen }

// SetPFReport attaches prefetch attribution: the cache classifies hit,
// early-eviction, and drain outcomes against the provenance each fill
// carried. A nil report disables classification.
func (c *Cache) SetPFReport(p *obs.PFReport) { c.pf = p }

// Sets reports the number of sets (0 for the always-miss cache).
func (c *Cache) Sets() int { return c.sets }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Register wires the cache's counters into the observability registry
// under l.Component-prefixed names (e.g. "pfcache.hits"), so the same
// type can serve as a per-core prefetch cache or a shared slice without
// metric-name collisions.
func (c *Cache) Register(r *obs.Registry, l obs.Labels) {
	n := l.Component
	st := &c.stats
	r.CounterU64(n+".accesses", l, &st.Accesses)
	r.CounterU64(n+".hits", l, &st.Hits)
	r.CounterU64(n+".misses", l, &st.Misses)
	r.CounterU64(n+".fills", l, &st.Fills)
	r.CounterU64(n+".evictions", l, &st.Evictions)
	r.CounterU64(n+".early_evictions", l, &st.EarlyEvictions)
	r.CounterU64(n+".first_uses", l, &st.FirstUses)
	r.Gauge(n+".occupancy", l, func() float64 { return float64(c.occupied) })
}

func (c *Cache) set(addr uint64) []line {
	blk := addr >> c.blockBits
	var idx int
	if c.setMask != 0 {
		idx = int(blk & c.setMask)
	} else {
		idx = int(blk % uint64(c.sets))
	}
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// Lookup services a demand access: on hit the block is marked used and
// true is returned. The first use of a prefetched block increments
// FirstUses (Eq. 5 denominator, "useful prefetches").
func (c *Cache) Lookup(addr uint64) bool {
	c.stats.Accesses++
	if c.sets == 0 {
		c.stats.Misses++
		return false
	}
	set := c.set(addr)
	tag := addr >> c.blockBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stamp++
			set[i].lru = c.stamp
			if !set[i].used {
				set[i].used = true
				c.stats.FirstUses++
				if c.pf != nil {
					c.pf.Record(set[i].prov, memreq.OutUseful)
				}
			}
			if c.pf != nil {
				c.pf.Hit(set[i].prov)
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains reports residency without touching LRU, used bits, or stats
// (prefetch-candidate filtering must not perturb the replacement state).
func (c *Cache) Contains(addr uint64) bool {
	if c.sets == 0 {
		return false
	}
	set := c.set(addr)
	tag := addr >> c.blockBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill inserts a prefetched block with no provenance (unattributed
// callers: the shared L2 slice, tests). See FillProv.
func (c *Cache) Fill(addr uint64, used bool) (earlyEvict bool, victimAddr uint64) {
	return c.FillProv(addr, used, memreq.Provenance{})
}

// FillProv inserts a prefetched block. used=true marks blocks that already
// served a demand on arrival (late prefetches that merged with a demand) so
// their eventual eviction is not counted as early. It reports whether an
// unused block was evicted (an early eviction) and, when so, the victim's
// block address — the input the pollution filter trains on.
//
// prov is remembered per line so attribution (when attached) can charge
// the eventual hit/eviction/drain outcome to the mechanism that issued
// the prefetch. A used=true fill is already terminally classified as late
// by the core, so only used=false fills are given a terminal here.
func (c *Cache) FillProv(addr uint64, used bool, prov memreq.Provenance) (earlyEvict bool, victimAddr uint64) {
	if c.sets == 0 {
		// The always-miss cache drops the block on the floor: an issued
		// prefetch that can never serve a demand is lost before use.
		if c.pf != nil && !used {
			c.pf.Record(prov, memreq.OutEarlyEvicted)
		}
		return false, 0
	}
	set := c.set(addr)
	tag := addr >> c.blockBits
	c.stamp++
	// Refresh on duplicate fill.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			if used && !set[i].used {
				set[i].used = true
				c.stats.FirstUses++
				if c.pf != nil {
					// The resident line is consumed by the merged demand;
					// it will never see a false->true Lookup transition.
					c.pf.Record(set[i].prov, memreq.OutUseful)
				}
			}
			if c.pf != nil && !used {
				c.pf.Record(prov, memreq.OutRedundant)
			}
			return false, 0
		}
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if !set[victim].valid {
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		c.stats.Evictions++
		if !set[victim].used {
			c.stats.EarlyEvictions++
			earlyEvict = true
			victimAddr = set[victim].tag << c.blockBits
			if c.pf != nil {
				c.pf.Record(set[victim].prov, memreq.OutEarlyEvicted)
			}
		}
	} else {
		c.occupied++
	}
	if used {
		c.stats.FirstUses++
	}
	c.stats.Fills++
	c.gen++
	set[victim] = line{tag: tag, valid: true, used: used, lru: c.stamp, prov: prov}
	return earlyEvict, victimAddr
}

// Invalidate drops a block if present, reporting whether it was resident.
// An unused invalidated block counts as an early eviction.
func (c *Cache) Invalidate(addr uint64) bool {
	if c.sets == 0 {
		return false
	}
	set := c.set(addr)
	tag := addr >> c.blockBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if !set[i].used {
				c.stats.EarlyEvictions++
				if c.pf != nil {
					c.pf.Record(set[i].prov, memreq.OutEarlyEvicted)
				}
			}
			set[i].valid = false
			c.occupied--
			c.gen++
			return true
		}
	}
	return false
}

// DrainUnused terminally classifies every still-resident, never-used line
// as unused-at-drain. The simulator calls it once when the run ends so
// the outcome ledger closes (every issued prefetch has exactly one fate).
func (c *Cache) DrainUnused() {
	if c.pf == nil {
		return
	}
	for i := range c.lines {
		if c.lines[i].valid && !c.lines[i].used {
			c.pf.Record(c.lines[i].prov, memreq.OutUnusedAtDrain)
		}
	}
}

// Occupancy returns the number of valid lines, for tests and debugging.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// CheckInvariants verifies line accounting (core.Options.Checks): the
// occupancy counter must match the number of valid lines — a fill or
// invalidation that loses track of a line breaks it — and the demand
// lookup counters must satisfy Accesses == Hits + Misses.
func (c *Cache) CheckInvariants(cycle uint64, core int) error {
	if valid := c.Occupancy(); valid != c.occupied {
		return &simerr.InvariantError{
			Component: "pfcache", Name: "entry-accounting", Cycle: cycle,
			Detail: fmt.Sprintf("core %d: occupancy counter %d but %d valid lines", core, c.occupied, valid),
		}
	}
	if c.stats.Accesses != c.stats.Hits+c.stats.Misses {
		return &simerr.InvariantError{
			Component: "pfcache", Name: "lookup-accounting", Cycle: cycle,
			Detail: fmt.Sprintf("core %d: %d accesses != %d hits + %d misses",
				core, c.stats.Accesses, c.stats.Hits, c.stats.Misses),
		}
	}
	return nil
}
