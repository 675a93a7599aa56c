package cache

import (
	"math/rand"
	"testing"
)

// checkTable compares every key of the oracle, and a few absent keys,
// against the table.
func checkTable(t *testing.T, step int, pt *ProbeTable, model map[uint64]int32, absent []uint64) {
	t.Helper()
	if pt.Len() != len(model) {
		t.Fatalf("step %d: Len = %d, oracle %d", step, pt.Len(), len(model))
	}
	for k, want := range model {
		if _, got := pt.Find(k); got != want {
			t.Fatalf("step %d: Find(%#x) = %d, oracle %d", step, k, got, want)
		}
	}
	for _, k := range absent {
		if _, ok := model[k]; ok {
			continue
		}
		if _, got := pt.Find(k); got != -1 {
			t.Fatalf("step %d: Find(%#x) = %d for an absent key", step, k, got)
		}
	}
	seen := 0
	pt.Each(func(k uint64, idx int32) {
		if model[k] != idx {
			t.Fatalf("step %d: Each yields (%#x, %d), oracle %d", step, k, idx, model[k])
		}
		seen++
	})
	if seen != len(model) {
		t.Fatalf("step %d: Each yields %d keys, oracle %d", step, seen, len(model))
	}
}

// TestProbeTableMatchesMap drives the table with a random insert/delete
// mix over a clustered key space, growing from the smallest size, and
// checks it against a map after every operation.
func TestProbeTableMatchesMap(t *testing.T) {
	pt := NewProbeTable(0)
	model := map[uint64]int32{}
	rng := rand.New(rand.NewSource(11))
	probe := make([]uint64, 4)
	for step := 0; step < 20000; step++ {
		// Multiples of 0x10000 share low bits; 96 keys let the table
		// grow to 512 slots and shrink back to empty several times.
		k := uint64(rng.Intn(96)) * 0x10000
		slot, idx := pt.Find(k)
		if want, ok := model[k]; ok != (idx >= 0) || (ok && idx != want) {
			t.Fatalf("step %d: Find(%#x) = %d, oracle (%d, %v)", step, k, idx, want, ok)
		}
		switch {
		case idx >= 0 && rng.Intn(3) != 0:
			pt.DeleteAt(slot)
			delete(model, k)
		case idx < 0 && (step/4000)%2 == 0:
			v := int32(rng.Intn(1 << 20))
			pt.InsertAt(slot, k, v)
			model[k] = v
		}
		for i := range probe {
			probe[i] = uint64(rng.Intn(96)) * 0x10000
		}
		checkTable(t, step, pt, model, probe)
	}
}

// TestProbeTableWrapAround builds clusters that run off the end of the
// table into slot 0, then deletes from their middle and head so the
// backward shift must move members across the wrap.
func TestProbeTableWrapAround(t *testing.T) {
	pt := NewProbeTable(16) // 64 slots, never grows below 16 keys
	last := pt.mask
	var keys []uint64
	for k := uint64(1); len(keys) < 6; k++ {
		if pt.home(k) >= last-1 {
			keys = append(keys, k)
		}
	}
	model := map[uint64]int32{}
	for i, k := range keys {
		slot, idx := pt.Find(k)
		if idx >= 0 {
			t.Fatalf("fresh key %#x found", k)
		}
		pt.InsertAt(slot, k, int32(i))
		model[k] = int32(i)
	}
	wrapped := 0
	pt.Each(func(k uint64, _ int32) {
		if s, _ := pt.Find(k); uint64(s) < pt.home(k) {
			wrapped++
		}
	})
	if wrapped == 0 {
		t.Fatal("no cluster member wrapped past the last slot")
	}
	for _, i := range []int{2, 0, 4} {
		slot, idx := pt.Find(keys[i])
		if idx != int32(i) {
			t.Fatalf("Find(%#x) = %d, want %d", keys[i], idx, i)
		}
		pt.DeleteAt(slot)
		delete(model, keys[i])
		checkTable(t, i, pt, model, keys)
	}
}

// TestProbeTableGrowth inserts past the 25% load bound repeatedly and
// checks that every key survives each doubling, that the load stays at
// or under the bound, and that CopyTo reproduces the grown table.
func TestProbeTableGrowth(t *testing.T) {
	pt := NewProbeTable(0)
	model := map[uint64]int32{}
	for i := 0; i < 1000; i++ {
		k := uint64(i) * 64
		slot, _ := pt.Find(k)
		pt.InsertAt(slot, k, int32(i))
		model[k] = int32(i)
		if 4*pt.Len() > len(pt.vals) {
			t.Fatalf("%d keys in %d slots: load above 25%%", pt.Len(), len(pt.vals))
		}
	}
	checkTable(t, 0, pt, model, []uint64{1, 3, 64 * 1000})
	if len(pt.vals) != 4096 {
		t.Fatalf("1000 keys in %d slots, want 4096", len(pt.vals))
	}

	var cp ProbeTable
	pt.CopyTo(&cp)
	checkTable(t, 1, &cp, model, nil)
	// Copying a smaller table back reuses the larger columns.
	small := NewProbeTable(0)
	slot, _ := small.Find(7)
	small.InsertAt(slot, 7, 3)
	small.CopyTo(&cp)
	checkTable(t, 2, &cp, map[uint64]int32{7: 3}, []uint64{0, 64})
	if n := testing.AllocsPerRun(100, func() { pt.CopyTo(&cp) }); n != 0 {
		t.Fatalf("CopyTo into a large enough table allocates %.1f times", n)
	}
}
