// Package cache implements the structural model of a set-associative
// cache: the tag store, replacement bookkeeping, MSHRs and a contended
// tag port. Timing and inter-level protocol live in the llc and system
// packages; this package answers "what is in the cache and what gets
// evicted", cycle-free.
//
// The DBI paper's mechanisms differ in where the dirty bit lives: the
// conventional organizations keep it in the tag entry (Dirty on Block),
// while DBI-augmented caches leave Block.Dirty unused and consult the
// Dirty-Block Index instead.
package cache

import (
	"fmt"
	"math/bits"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/replacement"
	"dbisim/internal/stats"
)

// Block is one tag-store entry as seen by callers (a value snapshot).
type Block struct {
	Valid  bool
	Addr   addr.BlockAddr // full block address (tag + index)
	Dirty  bool           // unused when a DBI owns dirty state
	Thread int            // inserting thread (for TA-DIP and stats)
}

// Stats counts tag-store activity. TagLookups is the quantity Figure 6c
// reports per kilo-instruction.
type Stats struct {
	TagLookups stats.Counter // every tag-store access, demand or filler
	Hits       stats.Counter
	Misses     stats.Counter
	Inserts    stats.Counter
	Evictions  stats.Counter
	DirtyEvict stats.Counter
	Writebacks stats.Counter // dirty blocks handed to the next level
}

// Cache is the structural model.
//
// The tag store is struct-of-arrays: instead of a slab of
// entry{valid, addr, dirty, thread} records, each field lives in its own
// dense column indexed by set*ways+way. The probe loop touches only the
// hot tag column, so a 16-way set's probe plane is 128 contiguous bytes
// (two cache lines) instead of 16 records dragging the cold dirty/thread
// bytes through the scan. Validity lives in the tag column itself: a
// slot's tag is its block address plus one, and the sentinel 0 marks an
// empty slot, so the tag compare is also the validity check.
type Cache struct {
	params config.CacheParams
	sets   int
	ways   int

	// Hot probe plane: one tag (see tagOf) per slot, emptyTag if none.
	tags []uint64
	// Cold payload columns, touched only on hits and state changes.
	dirty   []uint8
	threads []int32

	policy replacement.Policy

	// ssv memoizes the Set State Vector query (DirtyInLowRanks) per set:
	// ssvUnknown, ssvClean or ssvDirty, for depth ssvK. It is nil until
	// the first query, so caches nobody asks (L1, L2, non-VWQ LLCs) pay
	// one nil check per state change. Every write to a set's tag or dirty
	// column and every Policy call that can move its ranks clears the
	// set's entry (forget); Restore clears them all.
	ssv  []uint8
	ssvK int

	// Stats is exported for the owning level to read.
	Stats Stats
}

// emptyTag marks an empty slot. Tags are block addresses biased by one
// so that the zeroed column make returns is an empty tag store: New
// never writes it. Block addresses are physical addresses shifted right
// by the block offset, so the bias never wraps.
const emptyTag = 0

func tagOf(b addr.BlockAddr) uint64 { return uint64(b) + 1 }

// New builds a cache from validated parameters. threads sizes the
// thread-aware policies; seed fixes their random components.
func New(p config.CacheParams, threads int, seed int64) (*Cache, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	kind := replacement.KindLRU
	switch p.Replacement {
	case config.ReplLRU:
		kind = replacement.KindLRU
	case config.ReplTADIP:
		kind = replacement.KindTADIP
	case config.ReplDRRIP:
		kind = replacement.KindDRRIP
	default:
		return nil, fmt.Errorf("cache: unknown replacement kind %v", p.Replacement)
	}
	pol, err := replacement.New(kind, replacement.Config{
		Sets: p.Sets(), Ways: p.Ways, Threads: threads, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	n := p.Sets() * p.Ways
	return &Cache{
		params:  p,
		sets:    p.Sets(),
		ways:    p.Ways,
		tags:    make([]uint64, n),
		dirty:   make([]uint8, n),
		threads: make([]int32, n),
		policy:  pol,
	}, nil
}

// Reseed restarts the replacement policy's random stream as New with
// seed would. Restoring a power-on snapshot and reseeding yields the
// cache New(params, threads, seed) builds.
func (c *Cache) Reseed(seed int64) { c.policy.Reseed(seed) }

// Params returns the configured parameters.
func (c *Cache) Params() config.CacheParams { return c.params }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetOf maps a block address to its set index.
func (c *Cache) SetOf(b addr.BlockAddr) int {
	return int(uint64(b) & uint64(c.sets-1))
}

// slot returns the column index of (set, way).
func (c *Cache) slot(set, way int) int { return set*c.ways + way }

// validAt reports whether the slot holds a block.
func (c *Cache) validAt(i int) bool { return c.tags[i] != emptyTag }

// BlockAt exposes the tag entry at (set, way) for diagnostics and for
// mechanisms (VWQ, DAWB) that scan sets. Invalid slots read as the zero
// Block regardless of their stale payload.
func (c *Cache) BlockAt(set, way int) Block {
	i := c.slot(set, way)
	if !c.validAt(i) {
		return Block{}
	}
	return Block{
		Valid:  true,
		Addr:   addr.BlockAddr(c.tags[i] - 1),
		Dirty:  c.dirty[i] != 0,
		Thread: int(c.threads[i]),
	}
}

// b2u is the branch-free bool→uint64 the probe loops accumulate with;
// the compiler lowers it to a flag-materializing move (SETcc/CSET), not
// a jump.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// find locates a block without touching statistics or recency.
//
// The way scan is branchless: every way's tag is compared (an empty
// slot's sentinel never matches, so validity costs no extra compare)
// and the per-way match bits accumulate into one mask — no early exit,
// so the loop's trip count is data-independent and the branch predictor
// has nothing to mispredict. At most one way can match (the insert path
// never admits duplicates), making TrailingZeros the unique hit way.
func (c *Cache) find(b addr.BlockAddr) (way int, ok bool) {
	base := c.SetOf(b) * c.ways
	tags := c.tags[base : base+c.ways : base+c.ways]
	key := tagOf(b)
	var mask uint64
	for w := range tags {
		mask |= b2u(tags[w] == key) << uint(w)
	}
	if mask == 0 {
		return 0, false
	}
	return bits.TrailingZeros64(mask), true
}

// Contains reports block presence without counting a tag lookup; it is
// the oracle used by tests and by the DBI's consistency checks.
func (c *Cache) Contains(b addr.BlockAddr) bool {
	_, ok := c.find(b)
	return ok
}

// Lookup performs a tag-store lookup (counted) without updating recency.
// Mechanisms that scan for dirty row-mates (DAWB) use this.
func (c *Cache) Lookup(b addr.BlockAddr) (way int, hit bool) {
	c.Stats.TagLookups.Inc()
	return c.find(b)
}

// Access performs a demand access: a counted tag lookup that updates
// recency on a hit and dueling state on a miss. Like Lookup it returns
// the way it found, so a store hit sets the dirty bit by SetDirtyAt
// without probing the tags again.
func (c *Cache) Access(b addr.BlockAddr, thread int) (way int, hit bool) {
	c.Stats.TagLookups.Inc()
	set := c.SetOf(b)
	if way, ok := c.find(b); ok {
		c.forget(set)
		c.policy.Touch(set, way)
		c.Stats.Hits.Inc()
		return way, true
	}
	// OnMiss moves only the dueling selectors, never a set's ranks.
	c.policy.OnMiss(set, thread)
	c.Stats.Misses.Inc()
	return 0, false
}

// Touch promotes a resident block without a counted lookup (used when the
// lookup cost was already paid by the caller in the same operation).
func (c *Cache) Touch(b addr.BlockAddr) {
	if way, ok := c.find(b); ok {
		set := c.SetOf(b)
		c.forget(set)
		c.policy.Touch(set, way)
	}
}

// Insert fills a block, returning the way it occupies and the evicted
// victim (Valid=false when an invalid way was used). The caller decides
// what to do with a dirty victim (writeback) and with the victim's DBI
// state. A block already present keeps its way and recency; dirty=true
// marks it dirty.
//
// Nothing empties a slot once filled, so a set's valid ways are always a
// prefix: a set whose last way is valid is full, and only a set still
// filling is scanned for its first empty way.
func (c *Cache) Insert(b addr.BlockAddr, thread int, dirty bool) (way int, victim Block) {
	set := c.SetOf(b)
	if way, ok := c.find(b); ok {
		if dirty {
			c.forget(set)
			c.dirty[c.slot(set, way)] = 1
		}
		return way, Block{}
	}
	c.forget(set)
	base := set * c.ways
	way = c.ways - 1
	if !c.validAt(base + way) {
		for w := 0; w < way; w++ {
			if !c.validAt(base + w) {
				way = w
				break
			}
		}
	} else {
		way = c.policy.Victim(set)
		victim = c.BlockAt(set, way)
		c.Stats.Evictions.Inc()
		if victim.Dirty {
			c.Stats.DirtyEvict.Inc()
		}
	}
	i := base + way
	c.tags[i] = tagOf(b)
	c.dirty[i] = b2u8(dirty)
	c.threads[i] = int32(thread)
	c.policy.Insert(set, way, thread)
	c.Stats.Inserts.Inc()
	return way, victim
}

// Holds reports whether the slot (set, way) holds block b. A caller that
// kept the way Insert returned checks with it that the block is still
// there, without probing the set.
func (c *Cache) Holds(set, way int, b addr.BlockAddr) bool {
	return c.tags[c.slot(set, way)] == tagOf(b)
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// SetDirty marks a resident block dirty (conventional organization).
// It reports whether the block was found.
func (c *Cache) SetDirty(b addr.BlockAddr, dirty bool) bool {
	way, ok := c.find(b)
	if ok {
		c.SetDirtyAt(c.SetOf(b), way, dirty)
	}
	return ok
}

// IsDirty reports the tag-entry dirty bit (conventional organization),
// without counting a lookup.
func (c *Cache) IsDirty(b addr.BlockAddr) bool {
	way, ok := c.find(b)
	return ok && c.DirtyAt(c.SetOf(b), way)
}

// DirtyAt reports the dirty bit of the block at (set, way), which the
// caller found resident (by Lookup) in the same operation: a harvest
// visit reads and clears it without probing the tags again.
func (c *Cache) DirtyAt(set, way int) bool { return c.dirty[c.slot(set, way)] != 0 }

// SetDirtyAt sets the dirty bit of the resident block at (set, way).
func (c *Cache) SetDirtyAt(set, way int, dirty bool) {
	c.forget(set)
	c.dirty[c.slot(set, way)] = b2u8(dirty)
}

// DirtyBlocksInto appends the addresses of all dirty blocks to dst and
// returns the extended slice, letting scan-heavy callers (flush loops,
// AWB harvests) reuse one scratch buffer instead of allocating per call.
func (c *Cache) DirtyBlocksInto(dst []addr.BlockAddr) []addr.BlockAddr {
	for i := range c.tags {
		if c.validAt(i) && c.dirty[i] != 0 {
			dst = append(dst, addr.BlockAddr(c.tags[i]-1))
		}
	}
	return dst
}

// DirtyBlocks returns the addresses of all dirty blocks (test oracle and
// cache-flush support). Allocation-sensitive callers should prefer
// DirtyBlocksInto.
func (c *Cache) DirtyBlocks() []addr.BlockAddr {
	return c.DirtyBlocksInto(nil)
}

// CountValid returns the number of valid blocks (diagnostics).
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.tags {
		if c.validAt(i) {
			n++
		}
	}
	return n
}
