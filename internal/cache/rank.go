package cache

import "math/bits"

// LowRanks returns the mask of the set's ways holding eviction ranks
// 0..k-1 (rank 0 = next victim), valid or not.
func (c *Cache) LowRanks(set, k int) uint64 { return c.policy.LowRanks(set, k) }

// DirtyInLowRanks reports whether the set holds a valid dirty block among
// its k lowest-rank (closest-to-eviction) ways. This is the Set State
// Vector query of the Virtual Write Queue: a cheap per-set summary that
// filters tag lookups for proactive writebacks. It costs one pass over
// the set keeping k candidates, then a validity and dirty check on at
// most k ways.
func (c *Cache) DirtyInLowRanks(set, k int) bool {
	base := set * c.ways
	for m := c.policy.LowRanks(set, k); m != 0; m &= m - 1 {
		i := base + bits.TrailingZeros64(m)
		if c.tags[i] != emptyTag && c.dirty[i] != 0 {
			return true
		}
	}
	return false
}
