package replacement

import (
	"fmt"
	"math/rand"
	"testing"
)

// rankLRU is the reference rank of (set, way) under LRU and TA-DIP: how
// many ways of the set order before it by ascending (stamp, way).
func rankLRU(s *lruState, set, way int) int {
	self := s.stamps[set*s.ways+way]
	r := 0
	for w := 0; w < s.ways; w++ {
		v := s.stamps[set*s.ways+w]
		if w != way && (v < self || (v == self && w < way)) {
			r++
		}
	}
	return r
}

// rankRRIP is the reference rank under DRRIP: descending RRPV, ties
// broken by way index.
func rankRRIP(r *rripState, set, way int) int {
	self := r.rrpv[set*r.ways+way]
	n := 0
	for w := 0; w < r.ways; w++ {
		v := r.rrpv[set*r.ways+w]
		if w != way && (v > self || (v == self && w < way)) {
			n++
		}
	}
	return n
}

// rankCase is one policy under differential test, with its reference
// rank and a way to force rank ties into a set.
type rankCase struct {
	name string
	pol  Policy
	rank func(set, way int) int
	tie  func(rng *rand.Rand, set int)
}

func rankCases(sets, ways int, seed int64) []rankCase {
	lru := NewLRU(sets, ways)
	tadip := NewTADIP(TADIPConfig{Sets: sets, Ways: ways, Threads: 2, Seed: seed})
	drrip := NewDRRIP(TADIPConfig{Sets: sets, Ways: ways, Threads: 2, Seed: seed})
	// lruTie copies another way's stamp, zeroes one (an untouched way)
	// or demotes one (min-1, which collides with a zero stamp).
	lruTie := func(s *lruState) func(*rand.Rand, int) {
		return func(rng *rand.Rand, set int) {
			w, o := rng.Intn(ways), rng.Intn(ways)
			switch rng.Intn(3) {
			case 0:
				s.stamps[set*ways+w] = s.stamps[set*ways+o]
			case 1:
				s.stamps[set*ways+w] = 0
			default:
				s.demote(set, w)
			}
		}
	}
	return []rankCase{
		{"lru", lru, func(set, way int) int { return rankLRU(lru.s, set, way) }, lruTie(lru.s)},
		{"tadip", tadip, func(set, way int) int { return rankLRU(tadip.s, set, way) }, lruTie(tadip.s)},
		{"drrip", drrip, func(set, way int) int { return rankRRIP(drrip.r, set, way) },
			func(rng *rand.Rand, set int) {
				drrip.r.rrpv[set*ways+rng.Intn(ways)] = uint8(rng.Intn(int(drrip.r.max) + 1))
			}},
	}
}

// rankKs are the depths checked at an associativity: the edges, the
// VWQ depth and one past the set.
func rankKs(ways int) []int {
	return []int{0, 1, 2, ways - 1, ways, ways + 1}
}

// checkLowRanks compares LowRanks(set, k) with {w : rank(w) < k}.
func checkLowRanks(t *testing.T, c rankCase, set, ways int) {
	t.Helper()
	for _, k := range rankKs(ways) {
		var want uint64
		for w := 0; w < ways; w++ {
			if c.rank(set, w) < k {
				want |= 1 << uint(w)
			}
		}
		if got := c.pol.LowRanks(set, k); got != want {
			t.Fatalf("set %d k=%d: LowRanks = %#x, reference ranks give %#x", set, k, got, want)
		}
	}
}

// TestLowRanksMatchesRank drives every policy with random Touch, Insert,
// OnMiss and Victim-then-Insert streams, with rank ties forced in
// (copied and zero stamps, demote collisions, equal RRPVs), and checks
// after every step that LowRanks selects exactly the ways the O(ways)
// per-way rank places below k.
func TestLowRanksMatchesRank(t *testing.T) {
	const sets = 4 // TA-DIP/DRRIP period 2: set 0 LRU/SRRIP leader, set 1 BIP/BRRIP leader
	for _, ways := range []int{1, 2, 16, 32, 64} {
		for _, c := range rankCases(sets, ways, int64(ways)) {
			t.Run(fmt.Sprintf("%s/%dway", c.name, ways), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(ways)*7 + 1))
				// Power-on: every way is untouched (stamp 0, RRPV max).
				for set := 0; set < sets; set++ {
					checkLowRanks(t, c, set, ways)
				}
				for step := 0; step < 3000; step++ {
					set, way, thread := rng.Intn(sets), rng.Intn(ways), rng.Intn(2)
					switch rng.Intn(6) {
					case 0:
						c.pol.Touch(set, way)
					case 1, 2:
						c.pol.Insert(set, way, thread)
					case 3:
						c.pol.OnMiss(set, thread)
						c.pol.Insert(set, c.pol.Victim(set), thread)
					case 4:
						c.pol.OnMiss(set, thread)
					default:
						c.tie(rng, set)
					}
					checkLowRanks(t, c, set, ways)
				}
			})
		}
	}
}

// TestLowRanksAllTied checks the pure tie-break: with every key equal,
// ranks follow way index, so the k lowest ranks are ways 0..k-1.
func TestLowRanksAllTied(t *testing.T) {
	for _, ways := range []int{1, 2, 16, 64} {
		for _, c := range rankCases(1, ways, 1) {
			for _, k := range rankKs(ways) {
				want := uint64(0)
				for w := 0; w < k && w < ways; w++ {
					want |= 1 << uint(w)
				}
				if got := c.pol.LowRanks(0, k); got != want {
					t.Errorf("%s %d ways k=%d: LowRanks = %#x, want %#x", c.name, ways, k, got, want)
				}
			}
		}
	}
}

// TestLowRanksAllocationFree pins the query's zero-allocation contract.
func TestLowRanksAllocationFree(t *testing.T) {
	for _, c := range rankCases(4, 16, 1) {
		if n := testing.AllocsPerRun(100, func() { c.pol.LowRanks(1, 2) }); n != 0 {
			t.Errorf("%s: LowRanks allocates %.1f times per call", c.name, n)
		}
	}
}
