package system

import (
	"reflect"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
)

// TestForkedGoldenReplay replays the whole golden grid through a single
// ForkPool twice — the first pass warms machines and takes checkpoints,
// the second forks every cell from them — and asserts each cell's
// Results remain bit-identical to the pinned seed-checkout values both
// times. This is the tentpole guarantee: fork-then-measure ≡
// run-from-scratch.
func TestForkedGoldenReplay(t *testing.T) {
	if !Forkable() {
		t.Skip("rand.Source mirror unavailable on this runtime")
	}
	cells := loadGoldenCells(t)
	var pool ForkPool
	for pass := 0; pass < 2; pass++ {
		for _, c := range cells {
			cfg := goldenConfig(t, c)
			got, err := pool.Run(cfg, c.Benches, c.Seed)
			if err != nil {
				t.Fatalf("pass %d %s/%v: %v", pass, c.Mech, c.Benches, err)
			}
			if !reflect.DeepEqual(got, c.Results) {
				t.Errorf("pass %d %s/%v: forked Results diverge from golden\n got: %+v\nwant: %+v",
					pass, c.Mech, c.Benches, got, c.Results)
			}
		}
	}
}

// TestForkMatchesScratchDifferential exercises the restore path
// directly: for every mechanism, several cells share one warmup
// identity (same config but for the measurement budget, same benches,
// same seed) so every cell after the first forks from the group's
// checkpoint — and each must equal a fresh scratch machine's Run
// bit for bit.
func TestForkMatchesScratchDifferential(t *testing.T) {
	if !Forkable() {
		t.Skip("rand.Source mirror unavailable on this runtime")
	}
	var pool ForkPool
	mechs := []config.Mechanism{
		config.Baseline, config.TADIP, config.DAWB, config.VWQ,
		config.SkipCache, config.DBIAWB, config.DBICLB, config.DBIAWBCLB,
	}
	for _, mech := range mechs {
		for _, measure := range []uint64{3000, 5000, 8000} {
			cfg := config.Scaled(2, mech)
			cfg.WarmupInstructions, cfg.MeasureInstructions = 4000, measure
			benches := []string{"stream", "mcf"}
			forked, err := pool.Run(cfg, benches, 11)
			if err != nil {
				t.Fatalf("%v measure=%d: forked: %v", mech, measure, err)
			}
			fresh, err := New(cfg, benches, 11)
			if err != nil {
				t.Fatal(err)
			}
			if want := fresh.Run(); !reflect.DeepEqual(forked, want) {
				t.Errorf("%v measure=%d: forked vs scratch diverge\nforked:  %+v\nscratch: %+v",
					mech, measure, forked, want)
			}
		}
	}
}

// TestForkedParallelSweep runs a warmup-grouped grid through
// sweep.RunState on one and four workers with ForkPool states and
// requires bit-identical outcome sets; under -race it also proves the
// Release/adopt handoff shares no mutable state between live workers.
func TestForkedParallelSweep(t *testing.T) {
	if !Forkable() {
		t.Skip("rand.Source mirror unavailable on this runtime")
	}
	mechs := []config.Mechanism{config.Baseline, config.DBIAWBCLB}
	var cells []sweep.StateCell[Results, ForkPool]
	for _, m := range mechs {
		for _, measure := range []uint64{2000, 4000, 6000} {
			cfg := config.Scaled(1, m)
			cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, measure
			seed := int64(31)
			cells = append(cells, sweep.StateCell[Results, ForkPool]{
				Key: sweep.Key{Experiment: "t", Benchmark: "stream", Mechanism: m.String(),
					Param: WarmupKey(cfg, []string{"stream"}, seed)[:8]},
				Run: func(p *ForkPool) (Results, error) {
					return p.Run(cfg, []string{"stream"}, seed)
				},
				Group: WarmupKey(cfg, []string{"stream"}, seed),
			})
		}
	}
	seq, err := sweep.RunState(cells, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.RunState(cells, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Value, par[i].Value) {
			t.Errorf("cell %d: sequential vs 4-worker forked results diverge", i)
		}
	}
}

// TestGroupedCellsShareWorkerChains pins the scheduler contract the
// fork pool relies on: same-Group cells run consecutively on one
// worker state even when scattered through the input.
func TestGroupedCellsShareWorkerChains(t *testing.T) {
	type w struct{ seen []int }
	cells := make([]sweep.StateCell[int, w], 6)
	groups := []string{"a", "b", "a", "", "b", "a"}
	for i := range cells {
		i := i
		cells[i] = sweep.StateCell[int, w]{
			Key:   sweep.Key{Experiment: "g", Run: i},
			Group: groups[i],
			Run: func(st *w) (int, error) {
				st.seen = append(st.seen, i)
				return len(st.seen), nil
			},
		}
	}
	outs, err := sweep.RunState(cells, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Within a group, the per-state counter must increase in input
	// order: 1, 2, 3 for group "a" (cells 0, 2, 5), 1, 2 for "b".
	if outs[0].Value >= outs[2].Value || outs[2].Value >= outs[5].Value {
		t.Errorf("group a cells did not run in order on one state: %d %d %d",
			outs[0].Value, outs[2].Value, outs[5].Value)
	}
	if outs[1].Value >= outs[4].Value {
		t.Errorf("group b cells did not run in order on one state: %d %d",
			outs[1].Value, outs[4].Value)
	}
}
