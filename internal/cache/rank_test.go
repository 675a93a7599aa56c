package cache

import (
	"math/rand"
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
)

// TestDirtyInLowRanksMatchesBruteForce drives an LRU cache with random
// accesses, fills, touches and dirty-bit writes, keeping its own
// recency clock, and checks every set after every step against a
// brute-force scan: some valid dirty way whose rank — the number of
// ways with a smaller (recency, way) — is below k.
func TestDirtyInLowRanksMatchesBruteForce(t *testing.T) {
	const sets, ways = 4, 16
	p := config.CacheParams{SizeBytes: uint64(64 * sets * ways), Ways: ways, BlockSize: 64,
		Replacement: config.ReplLRU}
	c := mustNew(t, p)
	last := make([]uint64, sets*ways) // recency of each slot; 0 = untouched
	var clock uint64
	touch := func(b addr.BlockAddr) {
		for w := 0; w < ways; w++ {
			if blk := c.BlockAt(c.SetOf(b), w); blk.Valid && blk.Addr == b {
				clock++
				last[c.slot(c.SetOf(b), w)] = clock
			}
		}
	}
	rank := func(set, way int) int {
		r := 0
		for w := 0; w < ways; w++ {
			a, b := last[set*ways+w], last[set*ways+way]
			if a < b || (a == b && w < way) {
				r++
			}
		}
		return r
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20000; step++ {
		b := addr.BlockAddr(rng.Intn(sets * ways * 3))
		switch rng.Intn(4) {
		case 0:
			if c.Contains(b) {
				touch(b)
			}
			c.Access(b, 0)
		case 1:
			if !c.Contains(b) {
				c.Insert(b, 0, rng.Intn(3) == 0)
				touch(b)
			}
		case 2:
			c.SetDirty(b, rng.Intn(2) == 0)
		default:
			if c.Contains(b) {
				touch(b)
			}
			c.Touch(b)
		}
		for set := 0; set < sets; set++ {
			for _, k := range []int{0, 1, 2, ways - 1, ways} {
				want := false
				for w := 0; w < ways; w++ {
					if blk := c.BlockAt(set, w); rank(set, w) < k && blk.Valid && blk.Dirty {
						want = true
					}
				}
				if got := c.DirtyInLowRanks(set, k); got != want {
					t.Fatalf("step %d set %d k=%d: DirtyInLowRanks = %v, brute force %v", step, set, k, got, want)
				}
			}
		}
	}
}

// TestWidestSet covers the 64-way bound: a fully associative 64-way
// cache finds every block, including way 63, and the rank query sees
// that way. config.TestCacheParamsWayLimit pins the rejection of wider
// caches.
func TestWidestSet(t *testing.T) {
	p := config.CacheParams{SizeBytes: 64 * config.MaxWays, Ways: config.MaxWays, BlockSize: 64,
		Replacement: config.ReplLRU}
	c := mustNew(t, p)
	for i := 0; i < config.MaxWays; i++ {
		c.Insert(addr.BlockAddr(i), 0, false)
	}
	for i := 0; i < config.MaxWays; i++ {
		if !c.Contains(addr.BlockAddr(i)) {
			t.Fatalf("block %d of a full %d-way set not found", i, config.MaxWays)
		}
	}
	// Promote all but the block in way 63, which becomes the LRU way.
	last := addr.BlockAddr(config.MaxWays - 1)
	for i := 0; i < config.MaxWays-1; i++ {
		c.Touch(addr.BlockAddr(i))
	}
	if c.DirtyInLowRanks(0, 1) {
		t.Fatal("clean set reports a dirty low-rank way")
	}
	c.SetDirty(last, true)
	if !c.DirtyInLowRanks(0, 1) {
		t.Fatal("dirty LRU block in way 63 not seen at rank 0")
	}
}

// TestDirtyInLowRanksAllocationFree pins the SSV query's zero-allocation
// contract on a warm, partly dirty cache, for every policy.
func TestDirtyInLowRanksAllocationFree(t *testing.T) {
	for _, r := range []config.ReplacementKind{config.ReplLRU, config.ReplTADIP, config.ReplDRRIP} {
		p := smallParams()
		p.Replacement = r
		c := mustNew(t, p)
		for i := 0; i < p.Blocks(); i++ {
			c.Insert(addr.BlockAddr(i), 0, i%3 == 0)
		}
		set := 0
		if n := testing.AllocsPerRun(100, func() {
			c.DirtyInLowRanks(set, 2)
			set = (set + 1) % c.Sets()
		}); n != 0 {
			t.Errorf("%v: DirtyInLowRanks allocates %.1f times per call", r, n)
		}
	}
}

// TestSSVMemoMatchesRecompute is the differential test of the Set State
// Vector memo: random demand accesses, fills, store hits (SetDirtyAt at
// the way Access returned), dirty clears and touches, with Snapshot and
// Restore mid-stream, on every policy at 2, 16 and 64 ways. After every
// operation the memoized answer for every set must equal a fresh
// recompute from the replacement state; since the check itself fills the
// memo for every set, any state change that fails to clear a set's entry
// shows up as a stale answer at the next check.
func TestSSVMemoMatchesRecompute(t *testing.T) {
	for _, r := range []config.ReplacementKind{config.ReplLRU, config.ReplTADIP, config.ReplDRRIP} {
		for _, ways := range []int{2, 16, 64} {
			const sets, threads = 8, 2
			p := config.CacheParams{SizeBytes: uint64(64 * sets * ways), Ways: ways, BlockSize: 64,
				Replacement: r}
			c, err := New(p, threads, 5)
			if err != nil {
				t.Fatal(err)
			}
			k := 2
			if ways == 2 {
				k = 1
			}
			rng := rand.New(rand.NewSource(int64(ways)))
			var st CacheState
			snapped := false
			for op := 0; op < 6000; op++ {
				b := addr.BlockAddr(rng.Intn(3 * sets * ways))
				thread := rng.Intn(threads)
				switch x := rng.Intn(100); {
				case x < 30:
					c.Access(b, thread)
				case x < 60:
					c.Insert(b, thread, rng.Intn(2) == 0)
				case x < 75:
					if way, hit := c.Access(b, thread); hit {
						c.SetDirtyAt(c.SetOf(b), way, true)
					}
				case x < 85:
					if way, hit := c.Lookup(b); hit {
						c.SetDirtyAt(c.SetOf(b), way, false)
					}
				case x < 98:
					c.Touch(b)
				case !snapped:
					c.Snapshot(&st)
					snapped = true
				default:
					c.Restore(&st)
				}
				for set := 0; set < sets; set++ {
					if got, want := c.DirtyInLowRanks(set, k), c.dirtyInLowRanks(set, k); got != want {
						t.Fatalf("%v %d-way op %d set %d: memoized SSV %v, recomputed %v", r, ways, op, set, got, want)
					}
				}
			}
		}
	}
}
