package cache

import (
	"dbisim/internal/event"
	"dbisim/internal/stats"
	"dbisim/internal/telemetry"
)

// Port models a contended, non-pipelined lookup port (the shared L3 tag
// store port in the paper). Operations occupy the port for their full
// duration; queued demand operations always dispatch before queued
// background (filler) operations, but an operation in flight is never
// preempted — exactly the arbitration footnote 4 of the paper describes
// for aggressive-writeback lookups.
type Port struct {
	Eng *event.Engine
	// Attr, when set, receives the llc_port domain total: every
	// submitted operation's duration, charged at Submit. The port is
	// the single funnel for tag-store occupancy, so callers charging
	// per-purpose categories at their Submit sites reconcile exactly
	// against this total.
	Attr *telemetry.Attribution

	busy       bool
	demand     []portOp
	background []portOp
	curDone    func()     // completion callback of the op in flight
	completeFn event.Func // bound once so dispatch never allocates

	// Stats for contention analysis.
	BusyCycles    stats.Counter
	DemandOps     stats.Counter
	BackgroundOps stats.Counter
	QueueDelay    stats.Counter // summed cycles ops waited before dispatch
}

type portOp struct {
	dur      event.Cycle
	enqueued event.Cycle
	done     func()
}

// Submit queues an operation of the given duration. done runs when the
// operation completes. Background ops yield to demand ops at dispatch.
func (p *Port) Submit(background bool, dur event.Cycle, done func()) {
	p.Attr.ChargeDomain(telemetry.DomLLCPort, uint64(dur))
	op := portOp{dur: dur, enqueued: p.Eng.Now(), done: done}
	if background {
		p.background = append(p.background, op)
	} else {
		p.demand = append(p.demand, op)
	}
	p.dispatch()
}

// QueueLen reports queued (not in-flight) operations.
func (p *Port) QueueLen() int { return len(p.demand) + len(p.background) }

// Busy reports whether an operation is in flight.
func (p *Port) Busy() bool { return p.busy }

func (p *Port) dispatch() {
	if p.busy {
		return
	}
	var op portOp
	switch {
	case len(p.demand) > 0:
		op = p.demand[0]
		copy(p.demand, p.demand[1:])
		p.demand = p.demand[:len(p.demand)-1]
		p.DemandOps.Inc()
	case len(p.background) > 0:
		op = p.background[0]
		copy(p.background, p.background[1:])
		p.background = p.background[:len(p.background)-1]
		p.BackgroundOps.Inc()
	default:
		return
	}
	p.busy = true
	p.QueueDelay.Add(uint64(p.Eng.Now() - op.enqueued))
	p.BusyCycles.Add(uint64(op.dur))
	p.curDone = op.done
	if p.completeFn == nil {
		p.completeFn = p.complete
	}
	p.Eng.After(op.dur, p.completeFn)
}

// complete finishes the in-flight operation and dispatches the next.
// The in-flight callback is held on the port (one op is in flight at a
// time) rather than captured in a closure, keeping dispatch
// allocation-free.
func (p *Port) complete() {
	done := p.curDone
	p.curDone = nil
	p.busy = false
	if done != nil {
		done()
	}
	p.dispatch()
}

// RegisterMetrics adds the port's contention probes under the given
// name prefix (e.g. "llc.port").
func (p *Port) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.CounterStat(prefix+".busy_cycles", &p.BusyCycles)
	reg.CounterStat(prefix+".demand_ops", &p.DemandOps)
	reg.CounterStat(prefix+".background_ops", &p.BackgroundOps)
	reg.CounterStat(prefix+".queue_delay", &p.QueueDelay)
	reg.Gauge(prefix+".queue_len", func() float64 { return float64(p.QueueLen()) })
}

// MSHR tracks outstanding misses so that requests to the same block merge
// instead of issuing duplicate fills.
//
// The file is hardware-shaped rather than map-backed: a fixed slab of
// capacity entries threaded on an intrusive free list, indexed by a
// ProbeTable sized so it never grows. The slab holds only cold payload
// (free-list links, waiter slices). Waiter slices are recycled through
// a small pool, so the steady state neither allocates nor hashes
// through the Go runtime.
type MSHR struct {
	capacity int
	entries  []mshrEntry // fixed slab, len == capacity
	freeHead int32       // head of the free list through entries, -1 = none
	table    *ProbeTable // block → entry index
	wsFree   [][]func()  // recycled waiter slices (capacity retained)
}

type mshrEntry struct {
	next    int32 // free-list link
	waiters []func()
}

// NewMSHR returns an MSHR file with the given capacity.
func NewMSHR(capacity int) *MSHR {
	m := &MSHR{
		capacity: capacity,
		entries:  make([]mshrEntry, capacity),
		freeHead: -1,
		table:    NewProbeTable(capacity),
	}
	for i := range m.entries {
		m.entries[i].next = int32(i) + 1
	}
	if capacity > 0 {
		m.entries[capacity-1].next = -1
		m.freeHead = 0
	}
	return m
}

// Len reports outstanding entries.
func (m *MSHR) Len() int { return m.table.Len() }

// Full reports whether a new (non-merging) allocation would exceed
// capacity.
func (m *MSHR) Full() bool { return m.table.Len() >= m.capacity }

// Register adds a waiter for a block. It reports whether this is the
// first (allocating) request, i.e. the caller must issue the fill.
// Registering a new block on a full MSHR panics; callers must check Full
// and stall instead.
func (m *MSHR) Register(block uint64, wake func()) (first bool) {
	slot, idx := m.table.Find(block)
	if idx >= 0 {
		e := &m.entries[idx]
		e.waiters = append(e.waiters, wake)
		return false
	}
	if m.Full() {
		panic("cache: MSHR overflow; caller must stall on Full()")
	}
	idx = m.freeHead
	e := &m.entries[idx]
	m.freeHead = e.next
	if n := len(m.wsFree); e.waiters == nil && n > 0 {
		e.waiters = m.wsFree[n-1]
		m.wsFree[n-1] = nil
		m.wsFree = m.wsFree[:n-1]
	}
	e.waiters = append(e.waiters, wake)
	m.table.InsertAt(slot, block, idx)
	return true
}

// Outstanding reports whether the block has an MSHR entry.
func (m *MSHR) Outstanding(block uint64) bool {
	_, idx := m.table.Find(block)
	return idx >= 0
}

// Complete releases the entry for a block and runs all waiters in
// registration order. The entry is freed before the waiters run, so a
// waiter may re-register the same block (taking a fresh entry) without
// observing a phantom outstanding miss.
func (m *MSHR) Complete(block uint64) {
	slot, idx := m.table.Find(block)
	if idx < 0 {
		return
	}
	e := &m.entries[idx]
	ws := e.waiters
	e.waiters = nil
	e.next = m.freeHead
	m.freeHead = idx
	m.table.DeleteAt(slot)
	for _, w := range ws {
		if w != nil {
			w()
		}
	}
	m.wsFree = append(m.wsFree, ws[:0])
}
