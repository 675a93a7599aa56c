package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
)

// driveCache replays a deterministic access/insert/dirty workload and
// returns an observable transcript: hit pattern, victims, and the final
// dirty set.
func driveCache(c *Cache, seed int64) ([]bool, []Block, []addr.BlockAddr) {
	rng := rand.New(rand.NewSource(seed))
	var hits []bool
	var victims []Block
	for i := 0; i < 2000; i++ {
		b := addr.BlockAddr(rng.Intn(256))
		switch rng.Intn(3) {
		case 0:
			hits = append(hits, c.Access(b, 0))
		case 1:
			if v := c.Insert(b, 0, rng.Intn(2) == 0); v.Valid {
				victims = append(victims, v)
			}
		case 2:
			if c.Contains(b) {
				c.SetDirty(b, rng.Intn(2) == 0)
			}
		}
	}
	return hits, victims, c.DirtyBlocks()
}

// TestCacheResetMatchesFresh dirties a cache with one workload, rewinds
// it to its power-on snapshot and reseeds it, replays a second workload,
// and requires the transcript to match a factory-fresh cache running the
// same second workload with the same seed — the restored sentinel
// column must hide every stale entry, including replacement-policy
// state.
func TestCacheResetMatchesFresh(t *testing.T) {
	for _, repl := range []config.ReplacementKind{config.ReplLRU, config.ReplTADIP} {
		p := smallParams()
		p.Replacement = repl
		dirtied, err := New(p, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		var powerOn CacheState
		dirtied.Snapshot(&powerOn)
		driveCache(dirtied, 1)
		dirtied.Restore(&powerOn)
		dirtied.Reseed(99)

		fresh, err := New(p, 1, 99)
		if err != nil {
			t.Fatal(err)
		}
		h1, v1, d1 := driveCache(dirtied, 2)
		h2, v2, d2 := driveCache(fresh, 2)
		if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(d1, d2) {
			t.Errorf("%v: reset cache diverges from fresh cache", repl)
		}
		if dirtied.Stats != fresh.Stats {
			t.Errorf("%v: stats diverge after rewind: %+v vs %+v", repl, dirtied.Stats, fresh.Stats)
		}
	}
}

// TestDirtyBlocksInto checks the scratch-reuse variant appends into the
// provided buffer and agrees with DirtyBlocks.
func TestDirtyBlocksInto(t *testing.T) {
	c := mustNew(t, smallParams())
	for i := 0; i < 32; i++ {
		c.Insert(addr.BlockAddr(i), 0, i%2 == 0)
	}
	want := c.DirtyBlocks()
	scratch := make([]addr.BlockAddr, 0, 64)
	got := c.DirtyBlocksInto(scratch)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DirtyBlocksInto = %v, want %v", got, want)
	}
	if cap(got) != cap(scratch) {
		t.Errorf("DirtyBlocksInto reallocated: cap %d, scratch cap %d", cap(got), cap(scratch))
	}
	// Reuse with stale contents must not leak them.
	got2 := c.DirtyBlocksInto(got[:0])
	if !reflect.DeepEqual(got2, want) {
		t.Errorf("reused DirtyBlocksInto = %v, want %v", got2, want)
	}
}

// TestMSHRReset rewinds a full MSHR to its power-on snapshot and
// verifies it behaves like a new file: capacity restored, no phantom
// outstanding entries, waiters from before the rewind never fire.
func TestMSHRReset(t *testing.T) {
	m := NewMSHR(4)
	var powerOn MSHRState
	m.Snapshot(&powerOn)
	stale := 0
	for i := 0; i < 4; i++ {
		m.Register(uint64(i), func() { stale++ })
	}
	if !m.Full() {
		t.Fatal("MSHR not full after capacity registrations")
	}
	m.Restore(&powerOn)
	if m.Len() != 0 || m.Full() {
		t.Fatalf("after rewind: len=%d full=%v", m.Len(), m.Full())
	}
	for i := 0; i < 4; i++ {
		if m.Outstanding(uint64(i)) {
			t.Fatalf("block %d still outstanding after rewind", i)
		}
	}
	// Full capacity is available again and completion runs only the new
	// waiters.
	woke := 0
	for i := 10; i < 14; i++ {
		if first := m.Register(uint64(i), func() { woke++ }); !first {
			t.Fatalf("block %d merged into a stale entry", i)
		}
	}
	for i := 10; i < 14; i++ {
		m.Complete(uint64(i))
	}
	if woke != 4 || stale != 0 {
		t.Fatalf("woke=%d stale=%d, want 4 and 0", woke, stale)
	}
}

// TestMSHRChurn soaks the open-addressed table: a long random
// register/complete mix cross-checked against a map model, exercising
// collision chains and backward-shift deletion.
func TestMSHRChurn(t *testing.T) {
	m := NewMSHR(16)
	model := map[uint64]int{}
	rng := rand.New(rand.NewSource(3))
	fired := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		b := uint64(rng.Intn(64)) * 0x10000 // clustered keys: force collisions
		if out := m.Outstanding(b); out != (model[b] > 0) {
			t.Fatalf("step %d: Outstanding(%#x)=%v, model %v", i, b, out, model[b] > 0)
		}
		if model[b] > 0 || (!m.Full() && rng.Intn(2) == 0) {
			if model[b] == 0 && m.Full() {
				continue
			}
			b := b
			m.Register(b, func() { fired[b]++ })
			model[b]++
		} else if model[b] > 0 {
			m.Complete(b)
			if fired[b] != model[b] {
				t.Fatalf("step %d: %d waiters fired for %#x, want %d", i, fired[b], b, model[b])
			}
			fired[b] = 0
			model[b] = 0
		}
		if rng.Intn(4) == 0 {
			// Complete a random outstanding block.
			for k, n := range model {
				if n > 0 {
					m.Complete(k)
					if fired[k] != n {
						t.Fatalf("step %d: %d waiters fired for %#x, want %d", i, fired[k], k, n)
					}
					fired[k] = 0
					model[k] = 0
					break
				}
			}
		}
		live := 0
		for _, n := range model {
			if n > 0 {
				live++
			}
		}
		if m.Len() != live {
			t.Fatalf("step %d: Len=%d, model %d", i, m.Len(), live)
		}
	}
}
