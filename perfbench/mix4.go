package main

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"dbisim/internal/config"
	"dbisim/internal/system"
)

// The mix4-fork machine: one multiprogrammed write-heavy mix (§6.2),
// warmed once and measured from its checkpoint at several budgets. The
// budgets sit above the warmup overhang (cores that finish warmup early
// keep running; libquantum overruns by ~2.1M instructions), below
// which RunMeasure refuses to fork.
const mix4Warmup = 1_000_000

var (
	mix4Mech    = config.DBIAWBCLB
	mix4Benches = []string{"lbm", "GemsFDTD", "mcf", "libquantum"}
	mix4Budgets = []uint64{2_500_000, 3_000_000, 4_000_000}
)

func mix4Config(budget uint64) config.SystemConfig {
	cfg := config.Scaled(len(mix4Benches), mix4Mech)
	cfg.WarmupInstructions, cfg.MeasureInstructions = mix4Warmup, budget
	return cfg
}

// callRef is the expected output of one measurement: full Results and
// the machine's whole-run work counts.
type callRef struct {
	Results system.Results `json:"results"`
	Work    workCounts     `json:"work"`
}

// mix4Call is one Restore+RunMeasure as the child timed it.
type mix4Call struct {
	Budget    uint64     `json:"budget"`
	Got       callRef    `json:"got"`
	Delta     workCounts `json:"delta"` // work done by this call alone
	RestoreMS float64    `json:"restore_ms"`
	MeasureS  float64    `json:"measure_s"`
	CPUS      float64    `json:"cpu_s"` // process CPU time over the call
}

type mix4Report struct {
	SetupS     float64      `json:"setup_s"`
	NewMS      float64      `json:"new_ms"`
	WarmupS    float64      `json:"warmup_s"`
	SnapshotMS float64      `json:"snapshot_ms"`
	Calls      []mix4Call   `json:"calls"`
	Profile    layerProfile `json:"profile"`
	RSSMB      float64      `json:"rss_mb"` // the child's peak resident set
}

func mix4Setup(c *childEnv) (any, error) {
	if _, err := system.New(mix4Config(mix4Budgets[0]), mix4Benches, simSeed(c.seed)); err != nil {
		return nil, err
	}
	return setupReport{SetupS: c.sinceStart()}, nil
}

// mix4Run builds, warms and snapshots the machine once, then restores
// and measures it at each budget, repeating whole rounds until the
// run's seconds have elapsed.
func mix4Run(c *childEnv) (any, error) {
	var rep mix4Report
	t := time.Now()
	s, err := system.New(mix4Config(mix4Budgets[0]), mix4Benches, simSeed(c.seed))
	if err != nil {
		return nil, err
	}
	rep.NewMS = msSince(t)
	rep.SetupS = c.sinceStart()

	t = time.Now()
	if err := s.RunWarmup(); err != nil {
		return nil, err
	}
	rep.WarmupS = msSince(t) / 1000
	var ck system.Checkpoint
	t = time.Now()
	if err := s.Snapshot(&ck); err != nil {
		return nil, err
	}
	rep.SnapshotMS = msSince(t)

	if err := c.startProfile(); err != nil {
		return nil, err
	}
	start := time.Now()
	for len(rep.Calls) == 0 || time.Since(start).Seconds() < c.seconds {
		for _, b := range mix4Budgets {
			call := mix4Call{Budget: b}
			cpu0 := processCPUSeconds()
			t = time.Now()
			if err := s.Restore(mix4Config(b), &ck); err != nil {
				return nil, err
			}
			call.RestoreMS = msSince(t)
			base := countsOf(s)
			t = time.Now()
			res, err := s.RunMeasure()
			if err != nil {
				return nil, err
			}
			call.MeasureS = msSince(t) / 1000
			call.CPUS = processCPUSeconds() - cpu0
			call.Got = callRef{Results: res, Work: countsOf(s)}
			call.Delta = call.Got.Work.sub(base)
			rep.Calls = append(rep.Calls, call)
		}
	}
	if rep.Profile, err = c.stopProfile(); err != nil {
		return nil, err
	}
	if rep.RSSMB, err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	return rep, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// mix4Oracle runs each budget from scratch (system.New + Run).
func mix4Oracle(seed int64) (map[string]callRef, error) {
	out := map[string]callRef{}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		sem      = make(chan struct{}, 2)
	)
	for _, b := range mix4Budgets {
		wg.Add(1)
		go func(b uint64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s, err := system.New(mix4Config(b), mix4Benches, simSeed(seed))
			var ref callRef
			if err == nil {
				ref = callRef{Results: s.Run(), Work: countsOf(s)}
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			out[strconv.FormatUint(b, 10)] = ref
		}(b)
	}
	wg.Wait()
	return out, firstErr
}

func mix4Expected(seed int64) (map[string]callRef, error) {
	if isReferenceSeed(seed) {
		var ref map[string]callRef
		return ref, loadReference("mix4-fork", seed, &ref)
	}
	return mix4Oracle(seed)
}

// checkMix4 compares every measurement with the scratch result for its
// budget; each mismatching call counts as failed.
func checkMix4(o *outcome, rep mix4Report, want map[string]callRef) {
	for i, call := range rep.Calls {
		o.attempted++
		w, ok := want[strconv.FormatUint(call.Budget, 10)]
		if !ok {
			o.fail(1, "mix4 call %d: no expected result for budget %d", i, call.Budget)
			continue
		}
		checkEqual(o, fmt.Sprintf("mix4 call %d (budget %d)", i, call.Budget), call.Got, w)
	}
}

// runMix4 measures the mix4-fork workload.
func runMix4(p params) (outcome, error) {
	var o outcome
	setups, err := setupProbes("mix4-setup", p, setupRepeats-1)
	if err != nil {
		return o, err
	}
	want, err := mix4Expected(p.seed)
	if err != nil {
		return o, err
	}
	var plain mix4Report
	if _, err := spawn("mix4-run", p, false, &plain); err != nil {
		return o, err
	}
	checkMix4(&o, plain, want)
	o.set("setup_s", median(append(setups, plain.SetupS)))
	o.set("peak_rss_mb", plain.RSSMB)
	rate, wallRate, callUS := mix4Rate(plain)
	o.set("rate_per_s", rate)
	o.set("wall.rate_per_s", wallRate)
	latencyMetrics(&o, callUS)
	fmt.Fprintf(os.Stderr, "perfbench: mix4-fork %d calls, %.3f M simulated instructions per CPU second, %.3f M per second\n",
		len(plain.Calls), rate/1e6, wallRate/1e6)
	if !p.trace {
		return o, nil
	}

	var traced mix4Report
	if _, err := spawn("mix4-run", p, true, &traced); err != nil {
		return o, err
	}
	checkMix4(&o, traced, want)
	if isReferenceSeed(p.seed) {
		// Re-derive the recording from scratch so a traced run always
		// exercises the oracle path too.
		scratch, err := mix4Oracle(p.seed)
		if err != nil {
			return o, err
		}
		o.attempted++
		checkEqual(&o, "mix4 scratch oracle vs reference", scratch, want)
	}
	var work workCounts
	var restoreMS, measureS []float64
	for _, c := range traced.Calls {
		work.add(c.Delta)
		restoreMS = append(restoreMS, c.RestoreMS)
		measureS = append(measureS, c.MeasureS)
	}
	setCounts(&o, work)
	setLayers(&o, traced.Profile, work.Fired)
	tracedRate, _, _ := mix4Rate(traced)
	o.set("tracing.overhead_pct", 100*(rate/tracedRate-1))
	o.set("system.new_ms", traced.NewMS)
	o.set("system.warmup_s", traced.WarmupS)
	o.set("system.snapshot_ms", traced.SnapshotMS)
	o.set("system.restore_ms", median(restoreMS))
	o.set("system.measure_s", median(measureS))
	return o, nil
}

// mix4Rate returns simulated measurement-window instructions per
// second of process CPU and of wall time over all calls, and each call's
// wall time in microseconds.
func mix4Rate(rep mix4Report) (perCPU, perWall float64, us []float64) {
	var insts uint64
	var cpu, wall float64
	for _, c := range rep.Calls {
		insts += c.Got.Results.TotalInstructions
		d := c.RestoreMS/1000 + c.MeasureS
		wall += d
		cpu += c.CPUS
		us = append(us, d*1e6)
	}
	return float64(insts) / cpu, float64(insts) / wall, us
}
