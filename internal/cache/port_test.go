package cache

import (
	"testing"

	"dbisim/internal/event"
)

func TestPortSerializes(t *testing.T) {
	var eng event.Engine
	p := &Port{Eng: &eng}
	var done []event.Cycle
	for i := 0; i < 3; i++ {
		p.Submit(false, 10, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	want := []event.Cycle{10, 20, 30}
	if len(done) != 3 {
		t.Fatalf("completions: %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	if p.BusyCycles.Value() != 30 {
		t.Fatalf("busy cycles = %d", p.BusyCycles.Value())
	}
}

func TestPortDemandPriority(t *testing.T) {
	var eng event.Engine
	p := &Port{Eng: &eng}
	var order []string
	// First op occupies the port; then one background and one demand op
	// queue. Demand must dispatch first even though background queued
	// earlier.
	p.Submit(false, 5, func() { order = append(order, "first") })
	p.Submit(true, 5, func() { order = append(order, "background") })
	p.Submit(false, 5, func() { order = append(order, "demand") })
	eng.Run()
	if len(order) != 3 || order[1] != "demand" || order[2] != "background" {
		t.Fatalf("order = %v", order)
	}
}

func TestPortNoPreemption(t *testing.T) {
	var eng event.Engine
	p := &Port{Eng: &eng}
	var bgDone, demandDone event.Cycle
	p.Submit(true, 100, func() { bgDone = eng.Now() })
	// Demand arrives at cycle 1, must wait for the background op.
	eng.At(1, func() {
		p.Submit(false, 10, func() { demandDone = eng.Now() })
	})
	eng.Run()
	if bgDone != 100 {
		t.Fatalf("background done at %d", bgDone)
	}
	if demandDone != 110 {
		t.Fatalf("demand done at %d, want 110 (no preemption)", demandDone)
	}
	if p.QueueDelay.Value() != 99 {
		t.Fatalf("queue delay = %d, want 99", p.QueueDelay.Value())
	}
}

func TestPortCounters(t *testing.T) {
	var eng event.Engine
	p := &Port{Eng: &eng}
	p.Submit(false, 1, nil)
	p.Submit(true, 1, nil)
	p.Submit(true, 1, nil)
	eng.Run()
	if p.DemandOps.Value() != 1 || p.BackgroundOps.Value() != 2 {
		t.Fatalf("ops = %d demand, %d background", p.DemandOps.Value(), p.BackgroundOps.Value())
	}
	if p.Busy() || p.QueueLen() != 0 {
		t.Fatal("port not idle after run")
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHR(4)
	var woke []int
	first := m.Register(100, func() { woke = append(woke, 1) })
	if !first {
		t.Fatal("first register not first")
	}
	if m.Register(100, func() { woke = append(woke, 2) }) {
		t.Fatal("second register claimed to be first")
	}
	if !m.Outstanding(100) {
		t.Fatal("block not outstanding")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (merged)", m.Len())
	}
	m.Complete(100)
	if len(woke) != 2 || woke[0] != 1 || woke[1] != 2 {
		t.Fatalf("waiters woke %v", woke)
	}
	if m.Outstanding(100) {
		t.Fatal("block still outstanding after Complete")
	}
}

func TestMSHRFullPanics(t *testing.T) {
	m := NewMSHR(2)
	m.Register(1, nil)
	m.Register(2, nil)
	if !m.Full() {
		t.Fatal("MSHR not full")
	}
	// Merging into an existing entry is allowed even when full.
	if m.Register(1, nil) {
		t.Fatal("merge reported as first")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	m.Register(3, nil)
}

func TestMSHRCompleteUnknownBlock(t *testing.T) {
	m := NewMSHR(2)
	m.Complete(42) // must be a no-op
	if m.Len() != 0 {
		t.Fatal("phantom entry")
	}
}

// TestMSHRCollisionChains exercises the probe table's linear-probing
// cluster maintenance over the dense key column: a pile of keys sharing
// one home slot, completed in an order that forces backward-shift
// deletion to move cluster members, must leave every survivor findable.
func TestMSHRCollisionChains(t *testing.T) {
	m := NewMSHR(8)
	home := m.table.home

	// Collect 5 distinct keys whose home slot collides with key 1's.
	keys := []uint64{1}
	for k := uint64(2); len(keys) < 5; k++ {
		if home(k) == home(1) {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if !m.Register(k, nil) {
			t.Fatalf("Register(%d) merged instead of allocating", k)
		}
	}
	// Delete from the middle, then the head, so backward-shift must
	// relocate later cluster members both times.
	m.Complete(keys[2])
	m.Complete(keys[0])
	for i, k := range keys {
		want := i != 0 && i != 2
		if got := m.Outstanding(k); got != want {
			t.Fatalf("Outstanding(%d) = %v, want %v", k, got, want)
		}
	}
	// Survivors still merge (not re-allocate) and complete cleanly.
	if m.Register(keys[1], nil) {
		t.Fatal("survivor re-allocated: probe chain broken")
	}
	for _, i := range []int{1, 3, 4} {
		m.Complete(keys[i])
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", m.Len())
	}
}
