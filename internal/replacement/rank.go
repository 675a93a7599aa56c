package replacement

// lowest returns the mask of the k ways whose keys, XORed with flip, are
// smallest, ties broken by way index: the ways holding ranks 0..k-1 when
// rank 0 is the smallest (key^flip, way). It makes one pass over the
// set, keeping the best k ways seen so far in a window sorted by that
// order, and allocates nothing. A set has at most 64 ways (see
// config.CacheParams.Validate), so the mask and the window fit.
func lowest[K uint8 | uint64](keys []K, k int, flip K) uint64 {
	n := len(keys)
	if k <= 0 {
		return 0
	}
	if k >= n {
		return ^uint64(0) >> uint(64-n)
	}
	var top [64]uint8 // window of way indices, sorted ascending
	m := 0
	for w := range keys {
		v := keys[w] ^ flip
		// Ways arrive in index order, so a key equal to a windowed one
		// ranks after it: only a strictly smaller key displaces.
		if m == k {
			if v >= keys[top[m-1]]^flip {
				continue
			}
			m--
		}
		j := m
		for j > 0 && v < keys[top[j-1]]^flip {
			top[j] = top[j-1]
			j--
		}
		top[j] = uint8(w)
		m++
	}
	var mask uint64
	for _, w := range top[:m] {
		mask |= 1 << w
	}
	return mask
}

// lowRanks orders ways by ascending recency stamp: the LRU-most way is
// rank 0.
func (s *lruState) lowRanks(set, k int) uint64 {
	return lowest(s.stamps[set*s.ways:(set+1)*s.ways], k, 0)
}

// LowRanks implements Policy.
func (l *LRU) LowRanks(set, k int) uint64 { return l.s.lowRanks(set, k) }

// LowRanks implements Policy.
func (d *TADIP) LowRanks(set, k int) uint64 { return d.s.lowRanks(set, k) }

// LowRanks implements Policy: ways with larger RRPVs are closer to
// eviction. Flipping every bit of a uint8 reverses its order, so the
// ascending selection yields descending RRPVs.
func (d *DRRIP) LowRanks(set, k int) uint64 {
	return lowest(d.r.rrpv[set*d.r.ways:(set+1)*d.r.ways], k, 0xFF)
}
