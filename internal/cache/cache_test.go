package cache

import (
	"testing"
	"testing/quick"

	"dbisim/internal/addr"
	"dbisim/internal/config"
)

func smallParams() config.CacheParams {
	return config.CacheParams{
		SizeBytes: 64 * 4 * 16, Ways: 4, BlockSize: 64,
		TagLatency: 2, DataLatency: 2, MSHRs: 8,
		Replacement: config.ReplLRU,
	}
}

func mustNew(t *testing.T, p config.CacheParams) *Cache {
	t.Helper()
	c, err := New(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadParams(t *testing.T) {
	p := smallParams()
	p.BlockSize = 0
	if _, err := New(p, 1, 1); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestAccessHitMiss(t *testing.T) {
	c := mustNew(t, smallParams())
	b := addr.BlockAddr(0x100)
	if _, hit := c.Access(b, 0); hit {
		t.Fatal("hit on empty cache")
	}
	c.Insert(b, 0, false)
	way, hit := c.Access(b, 0)
	if !hit {
		t.Fatal("miss after insert")
	}
	if blk := c.BlockAt(c.SetOf(b), way); blk.Addr != b {
		t.Fatalf("Access returned way %d holding %+v, want block %#x", way, blk, uint64(b))
	}
	if c.Stats.Hits.Value() != 1 || c.Stats.Misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Stats.Hits.Value(), c.Stats.Misses.Value())
	}
	if c.Stats.TagLookups.Value() != 2 {
		t.Fatalf("tag lookups = %d, want 2", c.Stats.TagLookups.Value())
	}
}

func TestSetMapping(t *testing.T) {
	c := mustNew(t, smallParams()) // 16 sets
	if c.Sets() != 16 || c.Ways() != 4 {
		t.Fatalf("geometry %dx%d", c.Sets(), c.Ways())
	}
	if c.SetOf(addr.BlockAddr(16+3)) != 3 {
		t.Fatalf("SetOf = %d", c.SetOf(addr.BlockAddr(16+3)))
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	c := mustNew(t, smallParams())
	// Fill set 0 with blocks 0,16,32,48 (all map to set 0).
	for i := 0; i < 4; i++ {
		if _, v := c.Insert(addr.BlockAddr(i*16), 0, false); v.Valid {
			t.Fatalf("eviction while filling invalid ways: %+v", v)
		}
	}
	// Touch block 0 so block 16 is LRU.
	c.Touch(0)
	_, v := c.Insert(addr.BlockAddr(4*16), 0, false)
	if !v.Valid || v.Addr != 16 {
		t.Fatalf("victim = %+v, want block 16", v)
	}
	if c.Contains(16) {
		t.Fatal("evicted block still present")
	}
}

func TestInsertDirtyVictim(t *testing.T) {
	c := mustNew(t, smallParams())
	for i := 0; i < 4; i++ {
		c.Insert(addr.BlockAddr(i*16), 0, i == 0) // block 0 dirty
	}
	_, v := c.Insert(addr.BlockAddr(4*16), 0, false)
	if !v.Valid || v.Addr != 0 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty block 0", v)
	}
	if c.Stats.DirtyEvict.Value() != 1 {
		t.Fatalf("dirty evictions = %d", c.Stats.DirtyEvict.Value())
	}
}

func TestInsertExistingMergesDirty(t *testing.T) {
	c := mustNew(t, smallParams())
	c.Insert(7, 0, false)
	_, v := c.Insert(7, 0, true)
	if v.Valid {
		t.Fatalf("re-insert evicted %+v", v)
	}
	if !c.IsDirty(7) {
		t.Fatal("re-insert with dirty=true did not mark dirty")
	}
	c.Insert(7, 0, false)
	if !c.IsDirty(7) {
		t.Fatal("re-insert with dirty=false cleared dirty bit")
	}
}

func TestDirtyBitOps(t *testing.T) {
	c := mustNew(t, smallParams())
	c.Insert(5, 0, false)
	if c.IsDirty(5) {
		t.Fatal("fresh block dirty")
	}
	if !c.SetDirty(5, true) {
		t.Fatal("SetDirty failed on resident block")
	}
	if !c.IsDirty(5) {
		t.Fatal("dirty bit not set")
	}
	if c.SetDirty(999, true) {
		t.Fatal("SetDirty succeeded on absent block")
	}
	got := c.DirtyBlocks()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("DirtyBlocks = %v", got)
	}
	c.SetDirty(5, false)
	if len(c.DirtyBlocks()) != 0 {
		t.Fatal("dirty list not empty after clearing")
	}
}

func TestLookupCountsButDoesNotPromote(t *testing.T) {
	c := mustNew(t, smallParams())
	for i := 0; i < 4; i++ {
		c.Insert(addr.BlockAddr(i*16), 0, false)
	}
	// Lookup block 0 (LRU): should not promote it.
	if _, hit := c.Lookup(0); !hit {
		t.Fatal("lookup missed resident block")
	}
	_, v := c.Insert(addr.BlockAddr(4*16), 0, false)
	if v.Addr != 0 {
		t.Fatalf("victim = %+v; Lookup must not refresh recency", v)
	}
}

func TestCountValid(t *testing.T) {
	c := mustNew(t, smallParams())
	for i := 0; i < 10; i++ {
		c.Insert(addr.BlockAddr(i), 0, false)
	}
	if c.CountValid() != 10 {
		t.Fatalf("CountValid = %d", c.CountValid())
	}
}

// Property: the cache never holds two copies of a block, never exceeds
// its capacity and keeps every set's valid ways a prefix, under
// arbitrary insert/dirty/access sequences.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := New(smallParams(), 1, 7)
		if err != nil {
			return false
		}
		live := map[addr.BlockAddr]bool{}
		for _, op := range ops {
			b := addr.BlockAddr(op % 256)
			switch op % 3 {
			case 0:
				_, v := c.Insert(b, 0, op%5 == 0)
				live[b] = true
				if v.Valid {
					delete(live, v.Addr)
				}
			case 1:
				if c.SetDirty(b, op%7 == 0) != live[b] {
					return false
				}
			case 2:
				c.Access(b, 0)
			}
		}
		if c.CountValid() > c.Sets()*c.Ways() || !validPrefix(c) {
			return false
		}
		for b := range live {
			if !c.Contains(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockAt(t *testing.T) {
	c := mustNew(t, smallParams())
	c.Insert(3, 2, true)
	set := c.SetOf(3)
	found := false
	for w := 0; w < c.Ways(); w++ {
		blk := c.BlockAt(set, w)
		if blk.Valid && blk.Addr == 3 {
			found = true
			if blk.Thread != 2 || !blk.Dirty {
				t.Fatalf("BlockAt = %+v", blk)
			}
		}
	}
	if !found {
		t.Fatal("inserted block not found via BlockAt")
	}
}

// validPrefix reports whether every set's valid ways are ways 0..n-1 for
// some n: the invariant Insert relies on to skip its empty-way scan.
func validPrefix(c *Cache) bool {
	for set := 0; set < c.Sets(); set++ {
		full := true
		for w := 0; w < c.Ways(); w++ {
			v := c.BlockAt(set, w).Valid
			if v && !full {
				return false
			}
			full = v
		}
	}
	return true
}
