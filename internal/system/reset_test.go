package system

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"dbisim/internal/config"
	"dbisim/internal/sweep"
)

// goldenCells loads the committed golden grid (shared with
// TestGoldenResults).
type goldenCell struct {
	Mech    string   `json:"mech"`
	Benches []string `json:"benches"`
	Seed    int64    `json:"seed"`
	Warmup  uint64   `json:"warmup"`
	Measure uint64   `json:"measure"`
	Results Results  `json:"results"`
}

func loadGoldenCells(t *testing.T) []goldenCell {
	t.Helper()
	raw, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var cells []goldenCell
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("golden file holds no cells")
	}
	return cells
}

func goldenConfig(t *testing.T, c goldenCell) config.SystemConfig {
	t.Helper()
	mechByName := map[string]config.Mechanism{}
	for _, m := range config.AllMechanisms() {
		mechByName[m.String()] = m
	}
	mech, ok := mechByName[c.Mech]
	if !ok {
		t.Fatalf("unknown mechanism %q in golden file", c.Mech)
	}
	cfg := config.Scaled(len(c.Benches), mech)
	cfg.WarmupInstructions = c.Warmup
	cfg.MeasureInstructions = c.Measure
	return cfg
}

// rewindRun runs one cell whole on the pool's machine for its geometry,
// rewound to power-on (or built, on first use of the geometry) — the
// path every pooled cell without a usable warmup checkpoint starts on.
func rewindRun(p *ForkPool, cfg config.SystemConfig, benches []string, seed int64) (Results, error) {
	m, err := p.rewound(p.machine(Signature(cfg)), cfg, benches, seed)
	if err != nil {
		return Results{}, err
	}
	return m.sys.Run(), nil
}

// TestPooledGoldenReplay replays the whole golden grid through a single
// ForkPool's rewind path — so most cells execute on a machine dirtied
// by a previous cell and rewound from its power-on checkpoint, and
// every mechanism/core-count transition exercises the build path — and
// asserts each cell's Results remain bit-identical to the pinned
// seed-checkout values. This is the rewind guarantee:
// Restore(powerOn)-then-run ≡ fresh-construction-then-run.
func TestPooledGoldenReplay(t *testing.T) {
	if !Forkable() {
		t.Skip("rand.Source mirror unavailable on this runtime")
	}
	cells := loadGoldenCells(t)
	var pool ForkPool
	for _, c := range cells {
		cfg := goldenConfig(t, c)
		got, err := rewindRun(&pool, cfg, c.Benches, c.Seed)
		if err != nil {
			t.Fatalf("%s/%v: %v", c.Mech, c.Benches, err)
		}
		if !reflect.DeepEqual(got, c.Results) {
			t.Errorf("%s/%v: pooled Results diverge from golden\n got: %+v\nwant: %+v",
				c.Mech, c.Benches, got, c.Results)
		}
	}
}

// TestResetMatchesFreshRandomized interleaves cells in a shuffled order
// through one ForkPool's rewind path and checks every cell against a
// fresh System built from scratch, with varied seeds and budgets
// layered on top of the golden grid's geometries. Unlike the golden
// replay this also covers (cfg, seed) points the pinned file never saw.
func TestResetMatchesFreshRandomized(t *testing.T) {
	if !Forkable() {
		t.Skip("rand.Source mirror unavailable on this runtime")
	}
	cells := loadGoldenCells(t)
	rng := rand.New(rand.NewSource(7))
	// Sample a manageable subset: full golden replay is covered above.
	type point struct {
		cfg     config.SystemConfig
		benches []string
		seed    int64
	}
	var pts []point
	for i := 0; i < 24; i++ {
		c := cells[rng.Intn(len(cells))]
		cfg := goldenConfig(t, c)
		// Perturb what the rewind must honor: seed and budgets (budget
		// changes keep the signature; the rewind must still apply them).
		seed := c.Seed + int64(rng.Intn(5))
		if rng.Intn(2) == 0 {
			cfg.WarmupInstructions += uint64(rng.Intn(3)) * 1000
		}
		pts = append(pts, point{cfg, c.Benches, seed})
	}
	var pool ForkPool
	for i, p := range pts {
		pooled, err := rewindRun(&pool, p.cfg, p.benches, p.seed)
		if err != nil {
			t.Fatalf("point %d: pooled: %v", i, err)
		}
		fresh, err := New(p.cfg, p.benches, p.seed)
		if err != nil {
			t.Fatalf("point %d: fresh: %v", i, err)
		}
		if got := fresh.Run(); !reflect.DeepEqual(pooled, got) {
			t.Errorf("point %d (%s/%v seed %d): pooled vs fresh diverge\npooled: %+v\n fresh: %+v",
				i, p.cfg.Mechanism, p.benches, p.seed, pooled, got)
		}
	}
}

// TestPoolGeometryMismatchRebuilds drives a ForkPool across a geometry
// change (core count, then mechanism) and verifies it builds a fresh
// machine for each new geometry with correct results, then resumes
// rewinding once geometries match again.
func TestPoolGeometryMismatchRebuilds(t *testing.T) {
	if !Forkable() {
		t.Skip("rand.Source mirror unavailable on this runtime")
	}
	// Start from an empty pool: adopting machines released by earlier
	// sweeps would turn the first builds into rewinds.
	pool := ForkPool{adopted: true}
	run := func(cores int, mech config.Mechanism, seed int64, wantRebuild bool) {
		t.Helper()
		cfg := config.Scaled(cores, mech)
		cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, 4000
		benches := make([]string, cores)
		for i := range benches {
			benches[i] = "stream"
		}
		before := PoolStat.Snapshot()
		got, err := pool.Run(cfg, benches, seed)
		if err != nil {
			t.Fatal(err)
		}
		d := PoolStat.Snapshot().Sub(before)
		if rebuilt := d.Rebuilds == 1 && d.Resets == 0; rebuilt != wantRebuild {
			t.Errorf("%d cores %v seed %d: rebuilds=%d resets=%d, want rebuild=%v",
				cores, mech, seed, d.Rebuilds, d.Resets, wantRebuild)
		}
		fresh, err := New(cfg, benches, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh.Run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d cores %v seed %d: pooled vs fresh diverge", cores, mech, seed)
		}
	}
	run(1, config.Baseline, 1, true)   // build
	run(1, config.Baseline, 2, false)  // rewind (same signature)
	run(2, config.Baseline, 3, true)   // build: core count changed
	run(2, config.DBIAWBCLB, 4, true)  // build: mechanism changed
	run(2, config.DBIAWBCLB, 5, false) // rewind again
	run(1, config.Baseline, 6, false)  // the first machine is still pooled
}

// TestResetRefusals pins the rewind's error paths: every refusal
// happens before mutation, leaving the machine usable.
func TestResetRefusals(t *testing.T) {
	if !Forkable() {
		t.Skip("rand.Source mirror unavailable on this runtime")
	}
	cfg := config.Scaled(1, config.Baseline)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 1000, 1000
	benches := []string{"stream"}

	sampled, err := New(cfg, benches, 1, WithTimeSeries(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := sampled.rewind(cfg, benches, 2, &Checkpoint{owner: sampled, cfg: cfg, powerOn: true}); err == nil {
		t.Error("rewind succeeded on a system with a sampler attached")
	}

	plain, err := New(cfg, benches, 1)
	if err != nil {
		t.Fatal(err)
	}
	var powerOn Checkpoint
	if err := plain.Snapshot(&powerOn); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Mechanism = config.DBIAWBCLB
	if err := plain.rewind(other, benches, 2, &powerOn); err == nil {
		t.Error("rewind succeeded across a mechanism change")
	}
	if err := plain.rewind(cfg, []string{"stream", "mcf"}, 2, &powerOn); err == nil {
		t.Error("rewind succeeded with a bench/core mismatch")
	}
	if err := plain.rewind(cfg, []string{"no-such-bench"}, 2, &powerOn); err == nil {
		t.Error("rewind succeeded with an unknown benchmark")
	}
	if err := plain.rewind(cfg, benches, 2, &Checkpoint{}); err == nil {
		t.Error("rewind succeeded with a foreign checkpoint")
	}
	if err := plain.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	var warm Checkpoint
	if err := plain.Snapshot(&warm); err != nil {
		t.Fatal(err)
	}
	if err := plain.rewind(cfg, benches, 2, &warm); err == nil {
		t.Error("rewind succeeded from a warmup checkpoint")
	}
	// Still usable after refusals.
	if err := plain.rewind(cfg, []string{"mcf"}, 2, &powerOn); err != nil {
		t.Fatalf("legitimate rewind failed after refusals: %v", err)
	}
	fresh, err := New(cfg, []string{"mcf"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plain.Run(), fresh.Run(); !reflect.DeepEqual(got, want) {
		t.Error("rewound run diverges from fresh after refusals")
	}
}

// TestPoolRewindAllocationFree pins the zero-allocation rewind: once a
// pooled machine has run its cells, rewinding it between them touches
// only retained buffers.
func TestPoolRewindAllocationFree(t *testing.T) {
	if !Forkable() {
		t.Skip("rand.Source mirror unavailable on this runtime")
	}
	cfg := config.Scaled(2, config.DBIAWBCLB)
	cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, 4000
	a, b := []string{"stream", "mcf"}, []string{"lbm", "milc"}
	var pool ForkPool
	for seed := int64(1); seed <= 2; seed++ {
		for _, benches := range [][]string{a, b} {
			if _, err := rewindRun(&pool, cfg, benches, seed); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := pool.machine(Signature(cfg))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pool.rewound(m, cfg, a, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := pool.rewound(m, cfg, b, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm pool rewind allocates %v times per run", allocs)
	}
}

// TestRewindReseedsEveryRNG rewinds machines built with one seed to
// cells with another, on configurations small enough that every
// seeded replacement stream (L1/L2/LLC set dueling, DBI bimodal
// insertion) decides evictions, and requires fresh-machine results.
func TestRewindReseedsEveryRNG(t *testing.T) {
	if !Forkable() {
		t.Skip("rand.Source mirror unavailable on this runtime")
	}
	for _, mech := range []config.Mechanism{config.TADIP, config.DBIAWBCLB} {
		cfg := smallCfg(1, mech)
		cfg.L1.Replacement, cfg.L2.Replacement = config.ReplTADIP, config.ReplTADIP
		cfg.DBI.Replacement = config.DBILRWBIP
		var pool ForkPool
		if _, err := rewindRun(&pool, cfg, []string{"mcf"}, 1); err != nil {
			t.Fatal(err)
		}
		got, err := rewindRun(&pool, cfg, []string{"lbm"}, 2)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg, []string{"lbm"}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh.Run(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: rewound vs fresh diverge\nrewound: %+v\n  fresh: %+v", mech, got, want)
		}
	}
}

// TestPooledParallelSweep runs a mixed-mechanism cell grid through
// sweep.RunState with per-worker ForkPools, sequentially and on four
// workers, and requires bit-identical outcome sets. Under -race this is
// also the proof that pooled workers share no mutable state.
func TestPooledParallelSweep(t *testing.T) {
	mechs := []config.Mechanism{config.Baseline, config.DAWB, config.DBIAWBCLB}
	benches := []string{"stream", "mcf", "lbm", "milc"}
	var cells []sweep.StateCell[Results, ForkPool]
	for _, m := range mechs {
		for i, b := range benches {
			cfg := config.Scaled(1, m)
			cfg.WarmupInstructions, cfg.MeasureInstructions = 2000, 4000
			bench, seed := b, int64(100+i)
			cells = append(cells, sweep.StateCell[Results, ForkPool]{
				Key: sweep.Key{Experiment: "t", Benchmark: b, Mechanism: m.String()},
				Run: func(p *ForkPool) (Results, error) { return p.Run(cfg, []string{bench}, seed) },
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
			t.Errorf("cell %s: sequential vs 4-worker pooled results diverge", seq[i].Key)
		}
	}
}
