package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"dbisim/pkg/dbi"
)

// TestCheckerRejectsEachPerturbedField perturbs every numeric field of
// a recorded mix4 measurement, one at a time, and requires the checker
// to report exactly that field.
func TestCheckerRejectsEachPerturbedField(t *testing.T) {
	var ref map[string]callRef
	if err := loadReference("mix4-fork", referenceSeeds[0], &ref); err != nil {
		t.Fatal(err)
	}
	pristine := ref["3000000"]
	want := got(t, &pristine) // a deep copy: perturbations must not reach pristine
	if diffs, err := diffFields(want, want); err != nil || len(diffs) != 0 {
		t.Fatalf("identical results differ: %v %v", diffs, err)
	}
	fields := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path)
			}
		case reflect.Float64, reflect.Uint64, reflect.Int:
			old := reflect.ValueOf(v.Interface())
			switch v.Kind() {
			case reflect.Float64:
				v.SetFloat(v.Float() * (1 + 1e-15))
				if v.Float() == old.Float() {
					v.SetFloat(v.Float() + 1e-300)
				}
			case reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Int:
				v.SetInt(v.Int() + 1)
			}
			fields++
			var o outcome
			if checkEqual(&o, "perturbed "+path, want, pristine) || o.failed != 1 {
				t.Errorf("perturbing %s was not caught", path)
			}
			v.Set(old)
		}
	}
	walk(reflect.ValueOf(&want).Elem(), "")
	if fields < 30 {
		t.Fatalf("only %d fields perturbed", fields)
	}
	var o outcome
	if !checkEqual(&o, "restored", want, pristine) {
		t.Fatal("restoring every field did not restore equality")
	}
}

// got deep-copies a callRef through JSON.
func got(t *testing.T, c *callRef) callRef {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var out callRef
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// localTracker serves the driver's operations from an in-process
// tracker; drop, when set, loses one evicted key from the first
// SetDirty answer that has any.
type localTracker struct {
	tr   *dbi.Sharded
	drop bool
}

func keys(ks []uint64) []dbi.Key {
	out := make([]dbi.Key, len(ks))
	for i, k := range ks {
		out[i] = dbi.Key(k)
	}
	return out
}

func u64s(ks []dbi.Key) []uint64 {
	out := make([]uint64, len(ks))
	for i, k := range ks {
		out[i] = uint64(k)
	}
	return out
}

func (l *localTracker) SetDirty(_ context.Context, ks []uint64) ([]uint64, error) {
	ev := u64s(l.tr.SetDirtyBatch(keys(ks), nil))
	if l.drop && len(ev) > 0 {
		l.drop = false
		ev = ev[1:]
	}
	return ev, nil
}

func (l *localTracker) IsDirty(_ context.Context, ks []uint64) ([]bool, error) {
	return l.tr.IsDirtyBatch(keys(ks), nil), nil
}

func (l *localTracker) FlushRows(_ context.Context, ks []uint64) ([]uint64, error) {
	return u64s(l.tr.FlushRowsInto(keys(ks), nil)), nil
}

// conservationViolations drives two connections' request streams
// through one tracker configured as the server, flushes every written
// row and returns the conservation check's findings.
func conservationViolations(t *testing.T, drop bool) []string {
	t.Helper()
	tr, err := newServerTracker()
	if err != nil {
		t.Fatal(err)
	}
	lt := &localTracker{tr: tr, drop: drop}
	var all ledger
	for c := 0; c < serveConns; c++ {
		st, err := newStream(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		var led ledger
		for i := 0; i < 2000; i++ {
			if err := led.apply(context.Background(), lt, st.next()); err != nil {
				t.Fatal(err)
			}
		}
		all.merge(&led)
	}
	if all.evicted == 0 {
		t.Fatal("the streams caused no evictions; the check would be vacuous")
	}
	if err := all.flushAll(context.Background(), lt); err != nil {
		t.Fatal(err)
	}
	return all.violations(tr.Stats())
}

func TestConservationHoldsForCorrectTracker(t *testing.T) {
	if v := conservationViolations(t, false); len(v) != 0 {
		t.Fatalf("correct tracker flagged: %v", v)
	}
}

func TestConservationCatchesDroppedEvictedKey(t *testing.T) {
	// The key may be written and returned again later, which the set
	// comparison cannot tell apart; the eviction totals still differ.
	v := conservationViolations(t, true)
	if want := "tracker evicted"; len(v) == 0 || !strings.Contains(strings.Join(v, "; "), want) {
		t.Fatalf("dropped key not caught: %v", v)
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	cases := []struct {
		n        int
		pct, val float64
	}{
		{10000, 99.9, 9989}, // exactly 10 samples beyond p99.9
		{9999, 99, 9899},    // p99.9 would leave only 9 beyond
		{100000, 99.99, 99989},
		{1000, 99, 989},
		{100, 90, 89},
		{20, 50, 9},
		{19, 100, 18}, // too few for any percentile: the maximum
	}
	for _, c := range cases {
		pct, val := tail(sorted(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("n=%d: got p%g=%g, want p%g=%g", c.n, pct, val, c.pct, c.val)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"dbisim/internal/cache.(*Cache).find":                      "cache",
		"dbisim/internal/replacement.(*lruState).rank":             "replacement",
		"dbisim/internal/llc.harvestVWQ":                           "llc",
		"runtime.mallocgc":                                         "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                  "runtime",
		"math/rand.(*rngSource).Int63":                             "rand",
		"dbisim/internal/sweep.RunState[go.shape.struct {}].func1": "other",
		"dbisim/internal/system.(*System).harvest":                 "other",
		"": "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the metric
// table and workloads this program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var declared []metricDef
	for _, m := range doc.EndToEnd {
		declared = append(declared, metricDef{m.Name, m.Unit, true})
	}
	for _, m := range doc.PerLayer {
		declared = append(declared, metricDef{m.Name, m.Unit, false})
	}
	if !reflect.DeepEqual(declared, metricDefs) {
		t.Errorf("BENCHMARK.json metrics differ from metricDefs")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
