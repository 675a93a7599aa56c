package cache

import "math/bits"

// LowRanks returns the mask of the set's ways holding eviction ranks
// 0..k-1 (rank 0 = next victim), valid or not.
func (c *Cache) LowRanks(set, k int) uint64 { return c.policy.LowRanks(set, k) }

// Set State Vector memo entries (see Cache.ssv).
const (
	ssvUnknown uint8 = iota
	ssvClean
	ssvDirty
)

// DirtyInLowRanks reports whether the set holds a valid dirty block among
// its k lowest-rank (closest-to-eviction) ways. This is the Set State
// Vector query of the Virtual Write Queue: a per-set summary bit that
// filters tag lookups for proactive writebacks. Like the hardware's
// registered bits it is kept per set and answered without a scan while
// the set is unchanged; after a change it costs one pass over the set
// keeping k candidates, then a validity and dirty check on at most k
// ways. The memo holds one depth: a query at another k starts it over.
func (c *Cache) DirtyInLowRanks(set, k int) bool {
	if c.ssv == nil {
		c.ssv = make([]uint8, c.sets)
		c.ssvK = k
	} else if c.ssvK != k {
		clear(c.ssv)
		c.ssvK = k
	}
	switch c.ssv[set] {
	case ssvClean:
		return false
	case ssvDirty:
		return true
	}
	dirty := c.dirtyInLowRanks(set, k)
	c.ssv[set] = ssvClean + b2u8(dirty)
	return dirty
}

// dirtyInLowRanks computes the Set State Vector bit from the replacement
// state and the tag store.
func (c *Cache) dirtyInLowRanks(set, k int) bool {
	base := set * c.ways
	for m := c.policy.LowRanks(set, k); m != 0; m &= m - 1 {
		i := base + bits.TrailingZeros64(m)
		if c.tags[i] != emptyTag && c.dirty[i] != 0 {
			return true
		}
	}
	return false
}

// forget drops the set's memoized Set State Vector bit. Every write to
// the set's tag or dirty column, and every Policy call that can move its
// ranks (Touch, Insert, Victim), calls it first.
func (c *Cache) forget(set int) {
	if c.ssv != nil {
		c.ssv[set] = ssvUnknown
	}
}
