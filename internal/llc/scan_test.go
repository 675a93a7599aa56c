package llc

import (
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
	"dbisim/internal/event"
)

func TestScanQueueDropsWhenFull(t *testing.T) {
	eng, l, _ := build(t, config.DAWB)
	// Enqueue far more optional jobs than the cap; extras are dropped.
	for i := 0; i < scanQueueCap*3; i++ {
		l.enqueueScan([]addr.BlockAddr{addr.BlockAddr(i)}, false, func(addr.BlockAddr) {})
	}
	if l.Stat.ScanDrops.Value() == 0 {
		t.Fatal("no drops on overfull scan queue")
	}
	eng.Run()
}

func TestScanMustJobsNeverDropAndJumpQueue(t *testing.T) {
	eng, l, _ := build(t, config.DBI)
	var order []string
	// Fill the queue with paced jobs.
	for i := 0; i < scanQueueCap; i++ {
		l.enqueueScan([]addr.BlockAddr{addr.BlockAddr(i)}, false, func(addr.BlockAddr) {
			order = append(order, "paced")
		})
	}
	// A must job enqueues even though the queue is full, ahead of the
	// remaining paced jobs.
	l.enqueueScan([]addr.BlockAddr{999}, true, func(addr.BlockAddr) {
		order = append(order, "must")
	})
	eng.Run()
	if len(order) != scanQueueCap+1 {
		t.Fatalf("executed %d jobs, want %d", len(order), scanQueueCap+1)
	}
	// The must job ran before the tail of the paced backlog.
	mustAt := -1
	for i, s := range order {
		if s == "must" {
			mustAt = i
		}
	}
	if mustAt < 0 || mustAt >= scanQueueCap {
		t.Fatalf("must job ran at position %d of %d", mustAt, len(order))
	}
}

func TestScanPacingThrottlesOptionalJobs(t *testing.T) {
	eng, l, _ := build(t, config.DAWB)
	var times []event.Cycle
	blocks := make([]addr.BlockAddr, 5)
	for i := range blocks {
		blocks[i] = addr.BlockAddr(i)
	}
	l.enqueueScan(blocks, false, func(addr.BlockAddr) {
		times = append(times, eng.Now())
	})
	eng.Run()
	if len(times) != 5 {
		t.Fatalf("visited %d blocks", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < scanInterval {
			t.Fatalf("paced lookups %d cycles apart, want >= %d",
				times[i]-times[i-1], event.Cycle(scanInterval))
		}
	}
}

func TestScanMustJobsNotThrottled(t *testing.T) {
	eng, l, _ := build(t, config.DBI)
	var times []event.Cycle
	blocks := make([]addr.BlockAddr, 5)
	for i := range blocks {
		blocks[i] = addr.BlockAddr(i)
	}
	l.enqueueScan(blocks, true, func(addr.BlockAddr) {
		times = append(times, eng.Now())
	})
	eng.Run()
	if len(times) != 5 {
		t.Fatalf("visited %d blocks", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] >= scanInterval {
			t.Fatalf("must lookups %d cycles apart — throttled", times[i]-times[i-1])
		}
	}
}

func TestScanEmptyJobIgnored(t *testing.T) {
	eng, l, _ := build(t, config.DBI)
	l.enqueueScan(nil, false, func(addr.BlockAddr) { t.Fatal("visited a block of an empty job") })
	eng.Run()
}

// TestHarvestVWQAllocationFree pins the VWQ harvest's zero-allocation
// contract on a warmed LLC: the Set State Vector query over all 127
// row-mates and the pooled candidate buffer allocate nothing once the
// scan queue is full and each new job is dropped.
func TestHarvestVWQAllocationFree(t *testing.T) {
	_, l, _ := build(t, config.VWQ)
	for i := 0; i < l.Prm.Blocks(); i++ {
		l.Cache.Insert(addr.BlockAddr(i), 0, true)
	}
	l.harvestVWQ(0)
	if len(l.scanQ) != 1 || len(l.scanQ[0].blocks) == 0 {
		t.Fatal("SSV passed no row-mate of a fully dirty cache")
	}
	for i := 0; i < scanQueueCap; i++ {
		l.harvestVWQ(0)
	}
	drops := l.Stat.ScanDrops.Value()
	if n := testing.AllocsPerRun(50, func() { l.harvestVWQ(0) }); n != 0 {
		t.Fatalf("harvestVWQ allocates %.1f times per call", n)
	}
	if l.Stat.ScanDrops.Value() <= drops {
		t.Fatal("harvests were not dropped at a full scan queue")
	}
}

// TestVWQVisitWritesBackOnlyLowRanks checks the VWQ harvest visit: a
// dirty row-mate is written back (and cleaned) only when it sits in one
// of the vwqDepth LRU-most ways of its set; a dirty block nearer MRU is
// left dirty. Every visit is one counted tag lookup.
func TestVWQVisitWritesBackOnlyLowRanks(t *testing.T) {
	_, l, mem := build(t, config.VWQ)
	sets := addr.BlockAddr(l.Cache.Sets())
	set := make([]addr.BlockAddr, l.Cache.Ways()) // one set, LRU-most first
	for i := range set {
		set[i] = 5 + addr.BlockAddr(i)*sets
		l.Cache.Insert(set[i], 0, true)
	}
	for _, b := range set {
		l.Cache.Touch(b)
	}
	lookups := l.TagLookups()
	for _, b := range set {
		l.vwqVisit(b)
	}
	if got := l.TagLookups() - lookups; got != uint64(len(set)) {
		t.Fatalf("%d visits made %d tag lookups", len(set), got)
	}
	if len(mem.writes) != l.vwqDepth {
		t.Fatalf("wrote back %v, want the %d LRU-most blocks", mem.writes, l.vwqDepth)
	}
	for i, b := range set {
		if wrote := i < l.vwqDepth; l.Cache.IsDirty(b) == wrote || (wrote && mem.writes[i] != b) {
			t.Errorf("block at rank %d: dirty=%v after the visit, writes %v", i, l.Cache.IsDirty(b), mem.writes)
		}
	}
}
