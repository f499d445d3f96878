package cache

import (
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	c := New(16*1024, 8, 64)
	if c.Lookup(0x1000) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000) {
		t.Fatal("miss after fill")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGeometry(t *testing.T) {
	c := New(16*1024, 8, 64)
	if c.Sets() != 32 {
		t.Errorf("Sets = %d, want 32", c.Sets())
	}
}

func TestBlockGranularity(t *testing.T) {
	c := New(16*1024, 8, 64)
	c.Fill(0x1000, false)
	if !c.Lookup(0x103F) {
		t.Error("same-block offset missed")
	}
	if c.Lookup(0x1040) {
		t.Error("next block hit spuriously")
	}
}

func TestFirstUseCountedOnce(t *testing.T) {
	c := New(16*1024, 8, 64)
	c.Fill(0x40, false)
	c.Lookup(0x40)
	c.Lookup(0x40)
	c.Lookup(0x40)
	if got := c.Stats().FirstUses; got != 1 {
		t.Errorf("FirstUses = %d, want 1", got)
	}
}

func TestFillUsedMarksUseful(t *testing.T) {
	c := New(16*1024, 8, 64)
	c.Fill(0x40, true) // late prefetch that already served a demand
	if got := c.Stats().FirstUses; got != 1 {
		t.Errorf("FirstUses = %d, want 1", got)
	}
	// Evicting it later must not count as early.
	evictAll(c, 0x40)
	if got := c.Stats().EarlyEvictions; got != 0 {
		t.Errorf("EarlyEvictions = %d, want 0", got)
	}
}

// evictAll fills the set containing addr with conflicting blocks.
func evictAll(c *Cache, addr uint64) {
	setSpan := uint64(c.Sets() * 64)
	for i := 1; i <= 16; i++ {
		c.Fill(addr+uint64(i)*setSpan, true)
	}
}

func TestEarlyEviction(t *testing.T) {
	c := New(16*1024, 8, 64)
	c.Fill(0x40, false) // never used
	evictAll(c, 0x40)
	if got := c.Stats().EarlyEvictions; got != 1 {
		t.Errorf("EarlyEvictions = %d, want 1", got)
	}
	if c.Lookup(0x40) {
		t.Error("evicted block still resident")
	}
}

func TestUsedEvictionNotEarly(t *testing.T) {
	c := New(16*1024, 8, 64)
	c.Fill(0x40, false)
	c.Lookup(0x40) // use it
	evictAll(c, 0x40)
	if got := c.Stats().EarlyEvictions; got != 0 {
		t.Errorf("EarlyEvictions = %d, want 0 (block was used)", got)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(2*64, 2, 64) // 1 set, 2 ways
	c.Fill(0*64, true)
	c.Fill(32*64, true) // same set (any addr maps to set 0)
	c.Lookup(0)         // block 0 most recent
	c.Fill(64*64, true) // evicts block 32*64
	if !c.Lookup(0) {
		t.Error("LRU evicted the recently used block")
	}
	if c.Lookup(32 * 64) {
		t.Error("LRU kept the stale block")
	}
}

func TestDuplicateFillRefreshes(t *testing.T) {
	c := New(2*64, 2, 64)
	c.Fill(0, false)
	c.Fill(0, false) // duplicate: no new fill/eviction
	s := c.Stats()
	if s.Fills != 1 || s.Evictions != 0 {
		t.Errorf("stats after dup fill = %+v", s)
	}
	// Duplicate fill with used=true upgrades the line.
	c.Fill(0, true)
	if got := c.Stats().FirstUses; got != 1 {
		t.Errorf("FirstUses = %d, want 1 after upgrade", got)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(2*64, 2, 64)
	c.Fill(0, false)
	before := c.Stats()
	if !c.Contains(0) || c.Contains(64) {
		t.Error("Contains wrong")
	}
	if c.Stats() != before {
		t.Error("Contains mutated stats")
	}
	if got := c.Stats().FirstUses; got != 0 {
		t.Errorf("Contains marked block used: %d", got)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(16*1024, 8, 64)
	c.Fill(0x80, false)
	if !c.Invalidate(0x80) {
		t.Fatal("Invalidate missed resident block")
	}
	if c.Lookup(0x80) {
		t.Fatal("block resident after invalidate")
	}
	if got := c.Stats().EarlyEvictions; got != 1 {
		t.Errorf("unused invalidation should count early: %d", got)
	}
	if c.Invalidate(0x80) {
		t.Error("Invalidate hit absent block")
	}
}

func TestZeroSizeCacheAlwaysMisses(t *testing.T) {
	c := New(0, 8, 64)
	if c.Lookup(0x40) || c.Contains(0x40) {
		t.Error("zero-size cache hit")
	}
	if early, _ := c.Fill(0x40, false); early {
		t.Error("zero-size cache fill reported eviction")
	}
	if c.Invalidate(0x40) {
		t.Error("zero-size cache invalidated something")
	}
	if c.Occupancy() != 0 {
		t.Error("zero-size cache occupied")
	}
}

func TestOccupancyBounded(t *testing.T) {
	c := New(1024, 4, 64) // 16 lines
	for i := 0; i < 100; i++ {
		c.Fill(uint64(i*64), true)
	}
	if got := c.Occupancy(); got != 16 {
		t.Errorf("Occupancy = %d, want 16", got)
	}
}

// Property: accounting identities hold under arbitrary operation sequences.
func TestAccountingInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(1024, 4, 64)
		for _, op := range ops {
			addr := uint64(op%64) * 64
			switch op % 3 {
			case 0:
				c.Lookup(addr)
			case 1:
				c.Fill(addr, op%5 == 0)
			case 2:
				c.Invalidate(addr)
			}
		}
		s := c.Stats()
		// Evictions never exceed fills; early evictions never exceed
		// evictions+invalidations; occupancy bounded by capacity.
		if s.Evictions > s.Fills {
			return false
		}
		if c.Occupancy() > 16 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFillReportsVictimAddress(t *testing.T) {
	c := New(64, 1, 64) // direct-mapped single line
	c.Fill(0x1000, false)
	early, victim := c.Fill(0x2000, false) // evicts the unused block
	if !early {
		t.Fatal("eviction of unused block not reported early")
	}
	if victim != 0x1000 {
		t.Errorf("victim = %#x, want 0x1000", victim)
	}
	// Evicting a used block reports neither early nor a victim.
	c.Lookup(0x2000)
	early, victim = c.Fill(0x3000, false)
	if early || victim != 0 {
		t.Errorf("used-block eviction misreported: early=%v victim=%#x", early, victim)
	}
}

// TestGenTracksResidentSet: the generation moves on exactly the
// operations that change which blocks are resident, so a residency
// answer memoized at one generation stays valid until it moves.
func TestGenTracksResidentSet(t *testing.T) {
	c := New(2*64, 1, 64) // two sets of one way
	steps := []struct {
		name  string
		op    func()
		moves bool
	}{
		{"insert", func() { c.Fill(0, false) }, true},
		{"duplicate fill", func() { c.Fill(0, true) }, false},
		{"lookup hit", func() { c.Lookup(0) }, false},
		{"lookup miss", func() { c.Lookup(64) }, false},
		{"contains", func() { c.Contains(0); c.Contains(64) }, false},
		{"insert with eviction", func() { c.Fill(128, false) }, true},
		{"invalidate miss", func() { c.Invalidate(0) }, false},
		{"invalidate hit", func() { c.Invalidate(128) }, true},
	}
	for _, s := range steps {
		before := c.Gen()
		s.op()
		if moved := c.Gen() != before; moved != s.moves {
			t.Errorf("%s: generation moved = %v, want %v", s.name, moved, s.moves)
		}
	}
	var zero Cache
	zero.Fill(0, false)
	if zero.Gen() != 0 {
		t.Error("always-miss cache changed generation on a dropped fill")
	}
}
