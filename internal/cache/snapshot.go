package cache

import (
	"dbisim/internal/replacement"
	"dbisim/internal/stats"
)

// CacheState is a checkpoint of a Cache: the tag-store columns, the
// statistics and the replacement policy state. The columns mirror the
// live struct-of-arrays layout one-to-one, so capture and restore are
// three flat copies. The zero value is ready; buffers are reused
// across captures. A CacheState only makes sense for a cache of
// identical geometry — the system layer enforces that.
type CacheState struct {
	tags    []uint64
	dirty   []uint8
	threads []int32
	stats   Stats
	pol     replacement.PolicyState
}

// Snapshot captures the cache into st.
func (c *Cache) Snapshot(st *CacheState) {
	if len(st.tags) != len(c.tags) {
		st.tags = make([]uint64, len(c.tags))
		st.dirty = make([]uint8, len(c.dirty))
		st.threads = make([]int32, len(c.threads))
	}
	copy(st.tags, c.tags)
	copy(st.dirty, c.dirty)
	copy(st.threads, c.threads)
	st.stats = c.Stats
	c.policy.Snapshot(&st.pol)
}

// Restore writes st back. Every slot is restored — including the stale
// payload of invalid slots, which read paths never observe — so the
// tag store is bitwise the captured one. The Set State Vector memo is
// derived from that state, not part of it: Restore forgets every set.
func (c *Cache) Restore(st *CacheState) {
	clear(c.ssv)
	copy(c.tags, st.tags)
	copy(c.dirty, st.dirty)
	copy(c.threads, st.threads)
	c.Stats = st.stats
	c.policy.Restore(&st.pol)
}

// PortState is a checkpoint of a Port: the in-flight operation's
// completion callback, both queues (the callbacks are captured function
// values, valid only back on the machine that queued them) and the
// contention counters.
type PortState struct {
	busy       bool
	demand     []portOp
	background []portOp
	curDone    func()

	busyCycles    stats.Counter
	demandOps     stats.Counter
	backgroundOps stats.Counter
	queueDelay    stats.Counter
}

// Snapshot captures the port into st.
func (p *Port) Snapshot(st *PortState) {
	st.busy = p.busy
	st.demand = append(st.demand[:0], p.demand...)
	st.background = append(st.background[:0], p.background...)
	st.curDone = p.curDone
	st.busyCycles = p.BusyCycles
	st.demandOps = p.DemandOps
	st.backgroundOps = p.BackgroundOps
	st.queueDelay = p.QueueDelay
}

// Restore writes st back. The engine must be restored to the matching
// checkpoint separately: an in-flight operation's completion event
// lives there, not here.
func (p *Port) Restore(st *PortState) {
	p.busy = st.busy
	p.demand = append(p.demand[:0], st.demand...)
	p.background = append(p.background[:0], st.background...)
	p.curDone = st.curDone
	p.BusyCycles = st.busyCycles
	p.DemandOps = st.demandOps
	p.BackgroundOps = st.backgroundOps
	p.QueueDelay = st.queueDelay
}

// mshrSlot mirrors one MSHR entry in a checkpoint, waiter callbacks
// included (copied into checkpoint-owned storage, reused across
// captures).
type mshrSlot struct {
	next    int32
	hasW    bool
	waiters []func()
}

// MSHRState is a checkpoint of an MSHR file: the entry slab, the probe
// table and the free-list head. Free-slot contents are saved too —
// free-list link order is part of allocation behavior, and keeping it
// exact is cheaper than arguing it doesn't matter.
type MSHRState struct {
	freeHead int32
	slots    []mshrSlot
	table    ProbeTable
}

// Snapshot captures the MSHR into st.
func (m *MSHR) Snapshot(st *MSHRState) {
	st.freeHead = m.freeHead
	if len(st.slots) != len(m.entries) {
		st.slots = make([]mshrSlot, len(m.entries))
	}
	for i := range m.entries {
		e := &m.entries[i]
		s := &st.slots[i]
		s.next = e.next
		s.hasW = e.waiters != nil
		s.waiters = append(s.waiters[:0], e.waiters...)
	}
	m.table.CopyTo(&st.table)
}

// Restore writes st back, recycling or reattaching waiter slices so the
// restored file allocates exactly like the captured one would have.
func (m *MSHR) Restore(st *MSHRState) {
	m.freeHead = st.freeHead
	for i := range m.entries {
		e := &m.entries[i]
		s := &st.slots[i]
		e.next = s.next
		switch {
		case s.hasW:
			if e.waiters == nil {
				if n := len(m.wsFree); n > 0 {
					e.waiters = m.wsFree[n-1]
					m.wsFree[n-1] = nil
					m.wsFree = m.wsFree[:n-1]
				}
			}
			e.waiters = append(e.waiters[:0], s.waiters...)
		case e.waiters != nil:
			for j := range e.waiters {
				e.waiters[j] = nil
			}
			m.wsFree = append(m.wsFree, e.waiters[:0])
			e.waiters = nil
		}
	}
	st.table.CopyTo(m.table)
}
