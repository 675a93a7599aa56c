package cache

import "math/bits"

// ProbeTable maps block keys to small non-negative indices (an entry's
// position in its owner's slab). It is the index of the LLC's MSHR file
// and of a core's private-level miss merging: an open-addressed,
// linear-probed table kept at most 25% loaded, growing by doubling when
// an insert would pass that. The probe plane is two parallel dense
// columns, the occupancy/index word and the key, so a probe compares
// contiguous uint64 keys and hashes nothing through the Go runtime.
// Deletion shifts later cluster members back, so there are no
// tombstones and probe chains never grow stale.
type ProbeTable struct {
	vals  []int32  // 0 = empty, else index + 1
	keys  []uint64 // key per occupied slot, parallel to vals
	mask  uint64
	shift uint // 64 - log2(len(vals))
	n     int
}

// probeHashMul is the 64-bit Fibonacci-hashing multiplier (2^64/φ, odd).
// A key's home is the top bits of its product, which depend on every
// bit of the key: strided block addresses spread over the table.
const probeHashMul = 0x9E3779B97F4A7C15

// NewProbeTable returns an empty table sized for n keys without growing.
func NewProbeTable(n int) *ProbeTable {
	size := 8
	for size < 4*n {
		size <<= 1
	}
	t := &ProbeTable{}
	t.resize(size)
	return t
}

func (t *ProbeTable) resize(size int) {
	t.vals = make([]int32, size)
	t.keys = make([]uint64, size)
	t.mask = uint64(size - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home is the slot a key's probe starts at.
func (t *ProbeTable) home(key uint64) uint64 { return (key * probeHashMul) >> t.shift }

// Find probes for key. It returns the matching slot and its index, or
// (the first empty slot of the probe, -1) when key is absent: the slot
// InsertAt fills.
func (t *ProbeTable) Find(key uint64) (slot int, idx int32) {
	i := t.home(key)
	for t.vals[i] != 0 {
		if t.keys[i] == key {
			return int(i), t.vals[i] - 1
		}
		i = (i + 1) & t.mask
	}
	return int(i), -1
}

// InsertAt maps the absent key to idx at the slot Find returned for it,
// with no change to the table in between.
func (t *ProbeTable) InsertAt(slot int, key uint64, idx int32) {
	if 4*(t.n+1) > len(t.vals) {
		t.grow()
		slot, _ = t.Find(key)
	}
	t.vals[slot] = idx + 1
	t.keys[slot] = key
	t.n++
}

// grow doubles the table and reinserts every key.
func (t *ProbeTable) grow() {
	vals, keys := t.vals, t.keys
	t.resize(2 * len(vals))
	for i, v := range vals {
		if v != 0 {
			s, _ := t.Find(keys[i])
			t.vals[s] = v
			t.keys[s] = keys[i]
		}
	}
}

// DeleteAt removes the key at slot, an occupied slot Find returned, by
// backward shift: later cluster members whose home lies at or before
// the vacated slot move back into it.
func (t *ProbeTable) DeleteAt(slot int) {
	t.n--
	i := uint64(slot)
	for {
		t.vals[i] = 0
		t.keys[i] = 0
		j := i
		for {
			j = (j + 1) & t.mask
			if t.vals[j] == 0 {
				return
			}
			if (j-t.home(t.keys[j]))&t.mask >= (j-i)&t.mask {
				t.vals[i] = t.vals[j]
				t.keys[i] = t.keys[j]
				i = j
				break
			}
		}
	}
}

// Len reports the number of keys.
func (t *ProbeTable) Len() int { return t.n }

// Each calls f with every key and its index, in slot order.
func (t *ProbeTable) Each(f func(key uint64, idx int32)) {
	for i, v := range t.vals {
		if v != 0 {
			f(t.keys[i], v-1)
		}
	}
}

// CopyTo makes dst an exact copy of t, reusing dst's columns when they
// have the capacity: a checkpoint and its restore are two flat copies.
func (t *ProbeTable) CopyTo(dst *ProbeTable) {
	if cap(dst.vals) < len(t.vals) {
		dst.vals = make([]int32, len(t.vals))
		dst.keys = make([]uint64, len(t.keys))
	}
	dst.vals = dst.vals[:len(t.vals)]
	dst.keys = dst.keys[:len(t.keys)]
	copy(dst.vals, t.vals)
	copy(dst.keys, t.keys)
	dst.mask, dst.shift, dst.n = t.mask, t.shift, t.n
}
