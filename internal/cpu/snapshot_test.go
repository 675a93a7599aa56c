package cpu

import (
	"reflect"
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/event"
	"dbisim/internal/llc"
	"dbisim/internal/trace"
)

// mergedTrace touches each of n cold blocks three times back to back
// (load, load, store), so every fetch carries merged waiters. Its
// cursor is the whole generator state, so a test can checkpoint it.
type mergedTrace struct {
	n, pos int
}

func (g *mergedTrace) Name() string { return "merged" }

func (g *mergedTrace) Next() trace.Record {
	i := g.pos % (3 * g.n)
	g.pos++
	kind := trace.Load
	if i%3 == 2 {
		kind = trace.Store
	}
	return trace.Record{Kind: kind, Addr: addr.Addr(i/3) * 4096}
}

// coreTranscript is what a run of the core makes observable.
type coreTranscript struct {
	Now            event.Cycle
	Fired          uint64
	Stat           Stats
	Cycles         uint64
	Reads, Writes  int
	L1Dirty        []addr.BlockAddr
	L2Dirty        []addr.BlockAddr
	LLCTagLookups  uint64
	OutstandingEnd int
}

func transcript(eng *event.Engine, c *Core, mem *countMem) coreTranscript {
	return coreTranscript{
		Now: eng.Now(), Fired: eng.Fired(), Stat: c.Stat, Cycles: c.Cycles(),
		Reads: mem.reads, Writes: mem.writes,
		L1Dirty: c.l1.DirtyBlocks(), L2Dirty: c.l2.DirtyBlocks(),
		LLCTagLookups: c.llc.TagLookups(), OutstandingEnd: c.outstanding.Len(),
	}
}

// TestSnapshotWithMergedFetches stops a core with several outstanding
// shared fetches, each carrying merged waiters, checkpoints it with the
// engine and the LLC, runs on to the budget, then restores and runs
// again: both continuations must be identical.
func TestSnapshotWithMergedFetches(t *testing.T) {
	gen := &mergedTrace{n: 3000}
	eng, c, mem := buildCore(t, gen)
	const budget = 4000
	c.Start(budget, eng.Stop)
	merged := func() bool {
		n := 0
		c.outstanding.Each(func(_ uint64, id int32) {
			if len(c.sharedAll[id].waiters) >= 2 {
				n++
			}
		})
		return n >= 3
	}
	for !merged() {
		if !eng.Step() {
			t.Fatal("engine drained before three merged fetches were outstanding")
		}
	}

	var es event.EngineState
	var ls llc.State
	var cs State
	eng.Snapshot(&es)
	c.llc.Snapshot(&ls)
	c.Snapshot(&cs)
	memAt, genAt := *mem, *gen

	eng.Run()
	first := transcript(eng, c, mem)
	if !c.Done() {
		t.Fatal("first continuation did not reach the budget")
	}

	eng.Restore(&es)
	c.llc.Restore(&ls)
	c.Restore(&cs)
	*mem, *gen = memAt, genAt
	if !merged() {
		t.Fatal("restored core lost its merged outstanding fetches")
	}
	c.ResumeMeasure(budget, eng.Stop)
	eng.Run()
	if second := transcript(eng, c, mem); !reflect.DeepEqual(first, second) {
		t.Fatalf("restored run diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestMissPathAllocationFree pins the zero-allocation contract of the
// private-level miss path: a shared fetch with a merged second request,
// its completion (fills, dirty cascades into L2 and the LLC) and the
// store-hit path.
func TestMissPathAllocationFree(t *testing.T) {
	eng, c, _ := buildCore(t, loopTrace([]trace.Record{{Kind: trace.Load}}))
	next := addr.BlockAddr(0)
	miss := func() {
		c.fetchShared(next, false, nil)
		c.fetchShared(next, true, nil)
		next += 17
		eng.Run()
	}
	for i := 0; i < 5000; i++ {
		miss()
	}
	if n := testing.AllocsPerRun(1000, miss); n != 0 {
		t.Errorf("fetchShared/completeShared allocate %.2f times per miss", n)
	}
	if c.outstanding.Len() != 0 {
		t.Fatalf("%d fetches still outstanding after the engine drained", c.outstanding.Len())
	}
	if last := next - 17; !c.l1.IsDirty(last) {
		t.Fatal("the merged store's waiter did not mark the block dirty in L1")
	}

	b := addr.BlockAddr(1 << 20)
	c.store(b)
	eng.Run()
	if n := testing.AllocsPerRun(1000, func() { c.store(b) }); n != 0 {
		t.Errorf("store hit allocates %.2f times", n)
	}
	if !c.l1.IsDirty(b) {
		t.Fatal("store hit left the L1 block clean")
	}
}

// scriptTrace plays recs once, then loads far-away blocks (in L1 set 7)
// with gaps too long to matter.
type scriptTrace struct {
	recs []trace.Record
	pos  int
}

func (g *scriptTrace) Name() string { return "script" }

func (g *scriptTrace) Next() trace.Record {
	if g.pos < len(g.recs) {
		g.pos++
		return g.recs[g.pos-1]
	}
	g.pos++
	return trace.Record{Gap: 100000, Kind: trace.Load, Addr: addr.Addr(g.pos)<<30 + 7*64}
}

// runScript runs one core on cfg through recs and returns it once the
// script has long finished.
func runScript(t *testing.T, cfg config.SystemConfig, recs []trace.Record) *Core {
	t.Helper()
	var eng event.Engine
	mem := &countMem{eng: &eng}
	shared, err := llc.New(&eng, addr.Default(), llc.Config{Cores: 1, Sys: cfg, Mem: mem, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(&eng, 0, cfg, &scriptTrace{recs: recs}, shared, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0, nil)
	eng.RunUntil(5000)
	return c
}

// TestMergedFillRefillsAfterL1Eviction covers the fetch completion's L1
// slot check. A load and a store to block A merge into one fetch while
// the window is stalled behind the load. On completion the load's
// waiter fills A into a direct-mapped L1 and resumes issue, which loads
// X, a block of A's L1 set resident in L2: X's fill evicts A. The
// store's waiter must then fill A again, dirty, as its own Insert would
// have; marking the remembered slot dirty instead would dirty X.
func TestMergedFillRefillsAfterL1Eviction(t *testing.T) {
	cfg := config.Scaled(1, config.TADIP)
	cfg.L1.Ways = 1
	x := addr.Addr(1 << 16)
	a := x + 64*addr.Addr(cfg.L1.Sets()) // A shares X's L1 set
	y := x + 64                          // another L1 set
	c := runScript(t, cfg, []trace.Record{
		{Kind: trace.Load, Addr: x},
		{Gap: 300, Kind: trace.Load, Addr: y}, // stalls until X is in L1 and L2
		{Kind: trace.Load, Addr: a},
		{Kind: trace.Store, Addr: a},          // merges into A's fetch
		{Gap: 300, Kind: trace.Load, Addr: x}, // stalls until A's load completes
	})
	bx, ba := addr.Default().BlockOf(x), addr.Default().BlockOf(a)
	if c.Stat.L2Hits.Value() != 1 {
		t.Fatalf("L2 hits = %d, want 1 (the second load of X)", c.Stat.L2Hits.Value())
	}
	if !c.l1.Contains(ba) || !c.l1.IsDirty(ba) {
		t.Fatal("the store's waiter did not refill A dirty after X evicted it")
	}
	if c.l1.Contains(bx) || c.l2.IsDirty(bx) {
		t.Fatal("X is still in L1 or was marked dirty")
	}
}

// TestMergedFillRefillsAfterL2Eviction covers the L2 slot check: with a
// direct-mapped L2, the first waiter's L1 fill evicts a dirty block V
// whose write-back lands in A's L2 slot and evicts A there. The second
// waiter must fill A into L2 again, as its own Insert would have.
func TestMergedFillRefillsAfterL2Eviction(t *testing.T) {
	cfg := config.Scaled(1, config.TADIP)
	cfg.L2.Ways = 1
	v := addr.Addr(1 << 18)
	a := v + 64*addr.Addr(cfg.L2.Sets()) // A shares V's L1 and L2 sets
	z := v + 64*addr.Addr(cfg.L1.Sets()) // Z shares V's L1 set only
	c := runScript(t, cfg, []trace.Record{
		{Kind: trace.Store, Addr: v},          // V dirty in L1, LRU of its set
		{Gap: 300, Kind: trace.Load, Addr: z}, // Z the set's MRU
		{Kind: trace.Load, Addr: a},
		{Kind: trace.Load, Addr: a}, // merges into A's fetch
	})
	bv, ba := addr.Default().BlockOf(v), addr.Default().BlockOf(a)
	if !c.l1.Contains(ba) || !c.l2.Contains(ba) {
		t.Fatal("A is not in both L1 and L2 after its fetch completed")
	}
	if c.l1.Contains(bv) || c.l2.Contains(bv) {
		t.Fatal("V was not written back out of L1 and L2")
	}
}
