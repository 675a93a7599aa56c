// Command perfbench is the repository benchmark. It runs one workload
// per invocation, checks every output the workload produces, and
// prints one JSON result line last:
//
//	bash perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - fig6-sweep: one pass of the Figure-6 quick grid (14 models × 7
//     mechanisms) through experiments.Fig6 with two workers, in a fresh
//     child process.
//   - mix4-fork: one 4-core DBI+AWB+CLB machine on
//     lbm,GemsFDTD,mcf,libquantum, warmed once, snapshotted, then
//     restored and measured at several measurement budgets.
//   - serve-mixed: a dbiserved child process driven open-loop over the
//     binary protocol by two connections mixing SetDirty, IsDirty and
//     FlushRows batches, with row capacity below the write footprint.
//
// Every run checks its outputs before it reports: fig6-sweep and
// mix4-fork compare every simulated result exactly with a recorded
// reference (seeds 1 and 2, under testdata/) or, for any other seed,
// with a scratch system.New+Run oracle; serve-mixed flushes every row it
// wrote and checks that each key it set dirty came back exactly as the
// server accounts for it. A failed check counts in "failed" and makes
// the command exit 1.
//
// End to end (--trace 0) each workload reports set-up time, work done
// per second of host CPU (cells, simulated instructions, or requests
// per server CPU second) and peak resident memory. With --trace 1 the
// run repeats the measurement traced, with a CPU profile folded by
// package and timings around the public calls, and reports the
// per-layer metrics, wall-clock rates and latencies among them.
// Simulation work always runs in child processes of this binary
// (-child), so every measured pass starts from a fresh process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"dbisim/internal/perfstat"
)

// metricDef names one reported metric. The table is the single source
// of the names and units BENCHMARK.json declares (a test holds the two
// to each other).
type metricDef struct {
	name     string
	unit     string
	endToEnd bool
}

var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"rate_per_s", "1/s", true},
	{"peak_rss_mb", "MB", true},

	{"wall.rate_per_s", "1/s", false},
	{"latency.p50_us", "us", false},
	{"latency.p90_us", "us", false},

	{"event.ns_per_event", "ns", false},
	{"cpu.ns_per_event", "ns", false},
	{"cache.ns_per_event", "ns", false},
	{"llc.ns_per_event", "ns", false},
	{"dbi.ns_per_event", "ns", false},
	{"dram.ns_per_event", "ns", false},
	{"trace.ns_per_event", "ns", false},
	{"replacement.ns_per_event", "ns", false},
	{"misspred.ns_per_event", "ns", false},
	{"rand.ns_per_event", "ns", false},
	{"runtime.ns_per_event", "ns", false},
	{"other.ns_per_event", "ns", false},

	{"event.fired", "count", false},
	{"llc.tag_lookups", "count", false},
	{"llc.bypasses", "count", false},
	{"dbi.evictions", "count", false},
	{"dram.reads", "count", false},
	{"dram.writes", "count", false},
	{"dram.activates", "count", false},
	{"dram.drains", "count", false},

	{"system.new_ms", "ms", false},
	{"system.warmup_s", "s", false},
	{"system.snapshot_ms", "ms", false},
	{"system.restore_ms", "ms", false},
	{"system.measure_s", "s", false},

	{"pool.resets", "count", false},
	{"pool.rebuilds", "count", false},
	{"pool.ckpt_taken", "count", false},
	{"pool.ckpt_hits", "count", false},
	{"sweep.cell_ms_p50", "ms", false},
	{"sweep.cell_ms_max", "ms", false},
	{"sweep.busy_ratio", "ratio", false},

	{"client.set_us_p50", "us", false},
	{"client.isdirty_us_p50", "us", false},
	{"client.flush_us_p50", "us", false},
	{"loadgen.late_us_p99", "us", false},
	{"serve.due_p50_us", "us", false},
	{"tracker.set_batch_us", "us", false},
	{"tracker.isdirty_batch_us", "us", false},
	{"tracker.flush_us", "us", false},
	{"tracker.keys_per_eviction", "count", false},
	{"serve.max_rps", "1/s", false},
	{"serve.requests", "count", false},
	{"serve.errors", "count", false},

	{"latency.tail_percentile", "%", false},
	{"latency.tail_us", "us", false},
	{"latency.samples", "count", false},
	{"tracing.overhead_pct", "%", false},
	{"tracing.profile_samples", "count", false},
}

// outcome is what a workload measured: operation counts for the
// attempted/failed fields and every metric it could produce. Metrics a
// workload does not exercise stay absent and print as 0.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

// fail records n failed operations with the reason on stderr.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// params is one invocation's workload parameters.
type params struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	dbiserved string
}

var workloads = map[string]func(p params) (outcome, error){
	"fig6-sweep":  runFig6,
	"mix4-fork":   runMix4,
	"serve-mixed": runServe,
}

func main() {
	var p params
	var traceN int
	flag.StringVar(&p.workload, "workload", "", "workload: fig6-sweep, mix4-fork or serve-mixed")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed")
	flag.Float64Var(&p.seconds, "seconds", 10, "measurement length; whole units of work run until it elapses")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&p.dbiserved, "dbiserved", "", "path to the dbiserved binary (serve-mixed)")
	child := flag.String("child", "", "internal: run one measurement as a child process")
	t0 := flag.Int64("t0", 0, "internal: parent's wall clock (unix ns) just before starting this child")
	profile := flag.Bool("profile", false, "internal: CPU-profile the child's timed phase")
	record := flag.Bool("record", false, "write reference results for the reference seeds and exit")
	flag.Parse()
	p.trace = traceN == 1

	if *child != "" {
		if err := runChild(*child, p.seed, p.seconds, *t0, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if *record {
		if err := recordReferences(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[p.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", p.workload)
		os.Exit(2)
	}
	printProvenance(p)
	out, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range metricDefs {
		if d.endToEnd != p.trace {
			res.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printProvenance prints the run's provenance line ahead of the result:
// code version, toolchain, host and workload parameters.
func printProvenance(p params) {
	line, _ := json.Marshal(map[string]any{
		"provenance": map[string]any{
			"env":      perfstat.CaptureEnv(),
			"workload": p.workload,
			"seed":     p.seed,
			"seconds":  p.seconds,
			"trace":    p.trace,
			"params":   workloadParams[p.workload],
		},
	})
	fmt.Println(string(line))
}

// workloadParams records each workload's fixed configuration.
var workloadParams = map[string]any{
	"fig6-sweep": map[string]any{"grid": "fig6 quick", "parallel": fig6Workers,
		"warmup": fig6Warmup, "measure": fig6Measure},
	"mix4-fork": map[string]any{"mechanism": mix4Mech.String(), "mix": mix4Benches,
		"warmup": mix4Warmup, "budgets": mix4Budgets},
	"serve-mixed": map[string]any{"server_args": serveArgs, "conns": serveConns,
		"batch": serveBatch, "profile": serveProfile, "fixed_rate": serveFixedRate,
		"ladder": serveLadder(), "ladders": serveLadders, "rung_seconds": serveRungSeconds,
		"rung_p90_limit_us": serveP90LimitUs, "rung_backlog_limit_us": serveBacklogLimitUs},
}

// percentile returns the p-th percentile (0..100) of sorted samples by
// nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// rank is the nearest-rank index of the p-th percentile of n samples.
// The small epsilon keeps binary rounding of n*p/100 (10000*99.9/100 is
// 9990.000000000002) from pushing an exact rank up by one.
func rank(n int, p float64) int {
	i := int(math.Ceil(float64(n)*p/100-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// tailPercentiles is the ladder the tail rule picks from, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tail applies the tail rule to sorted samples: the highest percentile
// on the ladder that has at least ten samples beyond it, and its value.
// With too few samples for any rung it returns the maximum (reported as
// percentile 100).
func tail(sorted []float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if i := rank(n, p); n-1-i >= 10 {
			return p, sorted[i]
		}
	}
	if n == 0 {
		return 100, 0
	}
	return 100, sorted[n-1]
}

// median of unsorted samples.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// latencyMetrics sets the latency metrics from per-operation times in
// microseconds: median, p90, and the tail rule's figure with its sample
// count.
func latencyMetrics(o *outcome, us []float64) {
	s := append([]float64(nil), us...)
	sort.Float64s(s)
	o.set("latency.p50_us", percentile(s, 50))
	o.set("latency.p90_us", percentile(s, 90))
	setTail(o, s)
}

// setTail reports the tail rule over sorted latencies in microseconds.
func setTail(o *outcome, sorted []float64) {
	pct, v := tail(sorted)
	o.set("latency.tail_percentile", pct)
	o.set("latency.tail_us", v)
	o.set("latency.samples", float64(len(sorted)))
	fmt.Fprintf(os.Stderr, "perfbench: latency p50 %.1fµs, p90 %.1fµs, p%g %.1fµs over %d samples\n",
		percentile(sorted, 50), percentile(sorted, 90), pct, v, len(sorted))
}

func init() {
	// The workloads are defined for two CPUs (two sweep workers, two
	// connections); pin it so a larger host does not change them.
	runtime.GOMAXPROCS(2)
}
