package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dbisim/internal/config"
	"dbisim/internal/experiments"
	"dbisim/internal/stats"
	"dbisim/internal/sweep"
	"dbisim/internal/system"
	"dbisim/internal/trace"
)

// The fig6-sweep grid as experiments.Fig6 runs it in quick mode. The
// oracle rebuilds every cell from these independently of the runner,
// so they restate the runner's mechanism list and single-core quick
// budgets; a runner change to either shows up as a failed check.
const (
	fig6Workers = 2
	fig6Warmup  = 800_000
	fig6Measure = 1_000_000
)

var fig6Mechs = []config.Mechanism{
	config.TADIP, config.DAWB, config.VWQ,
	config.DBI, config.DBIAWB, config.DBICLB, config.DBIAWBCLB,
}

// simSeed maps a workload seed to the simulator's base seed; 0 is the
// runners' "use the default" value, which is 42.
func simSeed(seed int64) int64 {
	if seed == 0 {
		return 42
	}
	return seed
}

// cellRef is one cell's expected output: the full Results of a scratch
// run plus the machine's whole-run work counts.
type cellRef struct {
	Seed    int64          `json:"seed"`
	Results system.Results `json:"results"`
	Work    workCounts     `json:"work"`
}

// fig6Cell is one cell as the sweep reported it.
type fig6Cell struct {
	Seed      int64              `json:"seed"`
	Metrics   map[string]float64 `json:"metrics"`
	ElapsedMS float64            `json:"elapsed_ms"`
}

// fig6Report is a fig6-pass child's report.
type fig6Report struct {
	WallS      float64             `json:"wall_s"`
	Cells      map[string]fig6Cell `json:"cells"`
	GMeanIPC   map[string]float64  `json:"gmean_ipc"`
	MeanWRHR   map[string]float64  `json:"mean_wrhr"`
	MeanTagPKI map[string]float64  `json:"mean_tag_pki"`
	Pool       system.PoolSnapshot `json:"pool"`
	RSSMB      float64             `json:"rss_mb"` // the child's peak resident set
	Profile    layerProfile        `json:"profile"`
}

// fig6Setup builds the machine of the grid's first cell, which is the
// first thing a pass does before its first simulated cycle.
func fig6Setup(c *childEnv) (any, error) {
	mech, bench := fig6Mechs[0], trace.Benchmarks()[0]
	cfg := fig6Config(mech)
	if _, err := system.New(cfg, []string{bench}, sweep.CellSeed(simSeed(c.seed), bench, mech.String(), 0)); err != nil {
		return nil, err
	}
	return setupReport{SetupS: c.sinceStart()}, nil
}

type setupReport struct {
	SetupS float64 `json:"setup_s"`
}

// fig6Pass runs one Figure-6 quick pass and reports every cell.
func fig6Pass(c *childEnv) (any, error) {
	rec := &sweep.Recorder{}
	before := system.PoolStat.Snapshot()
	if err := c.startProfile(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := experiments.Fig6(experiments.Options{
		Quick: true, Seed: simSeed(c.seed), Parallel: fig6Workers, Recorder: rec,
	})
	wall := time.Since(start).Seconds()
	prof, perr := c.stopProfile()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	rep := fig6Report{
		WallS:      wall,
		Cells:      map[string]fig6Cell{},
		GMeanIPC:   map[string]float64{},
		MeanWRHR:   map[string]float64{},
		MeanTagPKI: map[string]float64{},
		Pool:       system.PoolStat.Snapshot().Sub(before),
		Profile:    prof,
	}
	if rep.RSSMB, err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	for _, r := range rec.Records() {
		rep.Cells[r.Key] = fig6Cell{Seed: r.Seed, Metrics: r.Metrics, ElapsedMS: r.ElapsedMS}
	}
	for _, m := range res.Mechanisms {
		rep.GMeanIPC[m.String()] = res.GMeanIPC[m]
		rep.MeanWRHR[m.String()] = res.MeanWRHR[m]
		rep.MeanTagPKI[m.String()] = res.MeanTagPKI[m]
	}
	return rep, nil
}

func fig6Config(mech config.Mechanism) config.SystemConfig {
	cfg := config.Scaled(1, mech)
	cfg.WarmupInstructions, cfg.MeasureInstructions = fig6Warmup, fig6Measure
	return cfg
}

// fig6Key is the sweep key the runner gives a cell.
func fig6Key(mech config.Mechanism, bench string) string {
	return sweep.Key{Experiment: "fig6", Benchmark: bench, Mechanism: mech.String()}.String()
}

// fig6Oracle runs every cell of the grid from scratch (system.New +
// Run, no pool, no checkpoint) on two goroutines.
func fig6Oracle(seed int64) (map[string]cellRef, error) {
	type job struct {
		mech  config.Mechanism
		bench string
	}
	var jobs []job
	for _, m := range fig6Mechs {
		for _, b := range trace.Benchmarks() {
			jobs = append(jobs, job{m, b})
		}
	}
	out := map[string]cellRef{}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan job)
	)
	for w := 0; w < fig6Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				cs := sweep.CellSeed(simSeed(seed), j.bench, j.mech.String(), 0)
				s, err := system.New(fig6Config(j.mech), []string{j.bench}, cs)
				var ref cellRef
				if err == nil {
					ref = cellRef{Seed: cs, Results: s.Run(), Work: countsOf(s)}
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[fig6Key(j.mech, j.bench)] = ref
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// fig6Expected returns the reference for a recorded seed, or runs the
// scratch oracle for any other.
func fig6Expected(seed int64) (map[string]cellRef, error) {
	if isReferenceSeed(seed) {
		var ref map[string]cellRef
		return ref, loadReference("fig6-sweep", seed, &ref)
	}
	return fig6Oracle(seed)
}

// checkFig6 compares every cell of a pass and the pass's aggregates
// with the expected results; each mismatching cell counts as failed.
func checkFig6(o *outcome, rep fig6Report, want map[string]cellRef) {
	o.attempted += len(want)
	for key, w := range want {
		got, ok := rep.Cells[key]
		if !ok {
			o.fail(1, "fig6 cell %s missing from the sweep", key)
			continue
		}
		checkEqual(o, "fig6 cell "+key,
			fig6Cell{Seed: got.Seed, Metrics: got.Metrics},
			fig6Cell{Seed: w.Seed, Metrics: w.Results.Metrics()})
	}
	for key := range rep.Cells {
		if _, ok := want[key]; !ok {
			o.fail(1, "fig6 sweep reported unexpected cell %s", key)
		}
	}
	// The runner's aggregates, recomputed in its order from the
	// expected cells.
	gm, wr, tp := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, m := range fig6Mechs {
		var ipcs, wrhrs, tags []float64
		for _, b := range trace.Benchmarks() {
			r := want[fig6Key(m, b)].Results
			ipcs = append(ipcs, r.PerCore[0].IPC)
			wrhrs = append(wrhrs, r.WriteRowHitRate)
			tags = append(tags, r.TagLookupsPKI)
		}
		gm[m.String()], wr[m.String()], tp[m.String()] = stats.GeoMean(ipcs), stats.Mean(wrhrs), stats.Mean(tags)
	}
	checkEqual(o, "fig6 aggregates",
		[]any{rep.GMeanIPC, rep.MeanWRHR, rep.MeanTagPKI}, []any{gm, wr, tp})
}

// runFig6 measures the fig6-sweep workload.
func runFig6(p params) (outcome, error) {
	var o outcome
	setups, err := setupProbes("fig6-setup", p, setupRepeats)
	if err != nil {
		return o, err
	}
	o.set("setup_s", median(setups))

	want, err := fig6Expected(p.seed)
	if err != nil {
		return o, err
	}
	var plain fig6Report
	cpuS, err := spawn("fig6-pass", p, false, &plain)
	if err != nil {
		return o, err
	}
	checkFig6(&o, plain, want)
	cells := float64(len(plain.Cells))
	// Host CPU, not wall time: on a shared 2-vCPU VM a neighbour can
	// take a vCPU for a whole pass (one pass ran 40s on 40 CPU-seconds,
	// the next 22s on 44), which wall time reports as a 2x swing.
	o.set("rate_per_s", cells/cpuS)
	o.set("wall.rate_per_s", cells/plain.WallS)
	o.set("peak_rss_mb", plain.RSSMB)
	var cellUS []float64
	for _, c := range plain.Cells {
		cellUS = append(cellUS, c.ElapsedMS*1000)
	}
	latencyMetrics(&o, cellUS)
	fmt.Fprintf(os.Stderr, "perfbench: fig6-sweep %d cells in %.2fs (%.3f cells/s), %.2f CPU s (%.3f cells/CPU s), pool %+v\n",
		len(plain.Cells), plain.WallS, cells/plain.WallS, cpuS, cells/cpuS, plain.Pool)
	if !p.trace {
		return o, nil
	}

	var traced fig6Report
	tracedCPUS, err := spawn("fig6-pass", p, true, &traced)
	if err != nil {
		return o, err
	}
	checkFig6(&o, traced, want)
	// The work counts come from scratch runs; for a reference seed the
	// oracle runs too and must reproduce the recording.
	scratch := want
	if isReferenceSeed(p.seed) {
		if scratch, err = fig6Oracle(p.seed); err != nil {
			return o, err
		}
		o.attempted++
		checkEqual(&o, "fig6 scratch oracle vs reference", scratch, want)
	}
	var work workCounts
	for _, c := range scratch {
		work.add(c.Work)
	}
	setCounts(&o, work)
	setLayers(&o, traced.Profile, work.Fired)
	o.set("tracing.overhead_pct", 100*(tracedCPUS/cpuS-1))
	o.set("pool.resets", float64(traced.Pool.Resets))
	o.set("pool.rebuilds", float64(traced.Pool.Rebuilds))
	o.set("pool.ckpt_taken", float64(traced.Pool.CkptTaken))
	o.set("pool.ckpt_hits", float64(traced.Pool.CkptHits))
	var ms []float64
	busy := 0.0
	for _, c := range traced.Cells {
		ms = append(ms, c.ElapsedMS)
		busy += c.ElapsedMS / 1000
	}
	sort.Float64s(ms)
	o.set("sweep.cell_ms_p50", percentile(ms, 50))
	o.set("sweep.cell_ms_max", ms[len(ms)-1])
	o.set("sweep.busy_ratio", busy/(fig6Workers*traced.WallS))
	return o, nil
}
