package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dbisim/internal/addr"
	"dbisim/internal/trace"
	"dbisim/pkg/dbi"
	"dbisim/pkg/dbiclient"
)

// The serve-mixed server and traffic. Row capacity (1024 rows of 64
// keys) is well below the two streams' combined write footprint
// (2 × 8 MiB of 64-byte blocks = 4096 rows), so SetDirty keeps evicting
// rows and the write-back path is exercised.
const (
	serveShards     = 8
	serveRows       = 1024
	serveRowSize    = 64
	serveAssoc      = 16
	serveRepl       = "lrw"
	serveConns      = 2
	serveBatch      = 512
	serveProfile    = "stream"
	serveFlushEvery = 64 // SetDirty batches between AWB flushes of recent rows

	// serveFixedRate is the offered load (requests/s, both connections)
	// of the measured phase: about 40% of the 7.5k–9.7k requests/s two
	// closed-loop connections reach with 512-key batches on a 2-vCPU
	// host. Large batches make the tracker's work, not per-request
	// syscalls, the bulk of a request, which steadies the figures on a
	// shared host.
	serveFixedRate = 3000
	// serveWindow is the span each round-trip percentile is taken over
	// before the median across the phase.
	serveWindow = 500 * time.Millisecond
	// The capacity ladder: geometric rungs from the fixed rate, each
	// serveLadderStep above the last, climbed serveLadders times. A
	// rung passes when no request fails, the p90 latency from due time
	// stays within serveP90LimitUs, and the median queueing wait over
	// the rung's last quarter stays within serveBacklogLimitUs (no
	// growing backlog). A ladder ends at its second failing rung in a
	// row and reports its highest passing rung. The limit is on p90, and
	// one failure is forgiven, because on a shared 2-vCPU host every
	// higher percentile, and many a single rung, is set by scheduling
	// stalls of a few milliseconds rather than by load.
	serveLadderStep     = 1.04
	serveLadderRungs    = 40
	serveRungSeconds    = 0.1
	serveLadders        = 5
	serveP90LimitUs     = 2000
	serveBacklogLimitUs = 1000
)

var serveArgs = []string{
	"-shards", strconv.Itoa(serveShards), "-rows", strconv.Itoa(serveRows),
	"-row-size", strconv.Itoa(serveRowSize), "-assoc", strconv.Itoa(serveAssoc),
	"-repl", serveRepl,
}

func serveLadder() []float64 {
	out := make([]float64, serveLadderRungs)
	for i := range out {
		out[i] = math.Round(serveFixedRate * math.Pow(serveLadderStep, float64(i)))
	}
	return out
}

// --- request streams -------------------------------------------------

type opKind int

const (
	opSet opKind = iota
	opIsDirty
	opFlush
)

var opNames = [...]string{opSet: "set", opIsDirty: "isdirty", opFlush: "flush"}

type request struct {
	op   opKind
	keys []uint64
}

// reqStream is one connection's deterministic request sequence: store
// keys of a trace become SetDirty batches, load keys IsDirty batches
// (loads beyond one pending batch are dropped, as in dbiserve.RunLoad),
// and every serveFlushEvery set batches the rows recently written are
// flushed. Regenerating a stream with the same connection and seed
// yields the same requests, which the tracker replay relies on.
type reqStream struct {
	gen    trace.Generator
	loads  []uint64
	recent []uint64
	queue  []request
	sets   int
}

func newStream(conn int, seed int64) (*reqStream, error) {
	prof, err := trace.ByName(serveProfile)
	if err != nil {
		return nil, err
	}
	// Disjoint 1 GiB footprints per connection, as distinct clients.
	return &reqStream{gen: trace.New(prof, addr.Addr(uint64(conn+1)<<30), simSeed(seed)*7919+int64(conn))}, nil
}

func (s *reqStream) next() request {
	for len(s.queue) == 0 {
		set := make([]uint64, 0, serveBatch)
		for len(set) < serveBatch {
			rec := s.gen.Next()
			key := uint64(rec.Addr) >> 6
			if rec.Kind == trace.Store {
				set = append(set, key)
			} else if len(s.loads) < serveBatch {
				s.loads = append(s.loads, key)
			}
		}
		s.queue = append(s.queue, request{opSet, set})
		s.recent = append(s.recent, set[0])
		if len(s.loads) == serveBatch {
			s.queue = append(s.queue, request{opIsDirty, s.loads})
			s.loads = make([]uint64, 0, serveBatch)
		}
		if s.sets++; s.sets%serveFlushEvery == 0 {
			s.queue = append(s.queue, request{opFlush, s.recent})
			s.recent = nil
		}
	}
	r := s.queue[0]
	s.queue = s.queue[1:]
	return r
}

// --- accounting ------------------------------------------------------

// tracker is the operation surface the driver needs; the binary
// client and the in-process tracker used by tests both provide it.
type tracker interface {
	SetDirty(ctx context.Context, keys []uint64) ([]uint64, error)
	IsDirty(ctx context.Context, keys []uint64) ([]bool, error)
	FlushRows(ctx context.Context, keys []uint64) ([]uint64, error)
}

// keySet is a bitset over keys at or above keyBase, grown on demand:
// each connection's keys are dense within its 1 GiB footprint.
type keySet struct{ words []uint64 }

// keyBase is the first key of the first connection's footprint.
const keyBase = 1 << 30 >> 6

func (s *keySet) add(k uint64) bool {
	if k < keyBase {
		return false
	}
	i := (k - keyBase) / 64
	if i >= uint64(len(s.words)) {
		s.words = append(s.words, make([]uint64, i+1-uint64(len(s.words)))...)
	}
	s.words[i] |= 1 << (k % 64)
	return true
}

func (s *keySet) union(o *keySet) {
	for i, w := range o.words {
		if i >= len(s.words) {
			s.words = append(s.words, o.words[i:]...)
			break
		}
		s.words[i] |= w
	}
}

// countMissing returns how many keys of s are not in o.
func (s *keySet) countMissing(o *keySet) int {
	n := 0
	for i, w := range s.words {
		if i < len(o.words) {
			w &^= o.words[i]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// ledger is what one client wrote and what came back to it.
type ledger struct {
	written  keySet
	returned keySet
	stray    int    // returned keys outside every footprint
	evicted  uint64 // keys received in SetDirty answers
	flushed  uint64 // keys received in FlushRows answers
	requests int    // requests sent
}

// apply sends one request and records its effect.
func (l *ledger) apply(ctx context.Context, t tracker, r request) error {
	l.requests++
	switch r.op {
	case opSet:
		ev, err := t.SetDirty(ctx, r.keys)
		if err != nil {
			return err
		}
		for _, k := range r.keys {
			l.written.add(k)
		}
		l.evicted += uint64(len(ev))
		l.markReturned(ev)
	case opIsDirty:
		got, err := t.IsDirty(ctx, r.keys)
		if err != nil {
			return err
		}
		if len(got) != len(r.keys) {
			return fmt.Errorf("IsDirty answered %d of %d keys", len(got), len(r.keys))
		}
	case opFlush:
		fl, err := t.FlushRows(ctx, r.keys)
		if err != nil {
			return err
		}
		l.flushed += uint64(len(fl))
		l.markReturned(fl)
	}
	return nil
}

func (l *ledger) markReturned(keys []uint64) {
	for _, k := range keys {
		if !l.returned.add(k) {
			l.stray++
		}
	}
}

func (l *ledger) merge(o *ledger) {
	l.written.union(&o.written)
	l.returned.union(&o.returned)
	l.stray += o.stray
	l.evicted += o.evicted
	l.flushed += o.flushed
	l.requests += o.requests
}

// flushAll flushes every row the ledger wrote, so every dirty key must
// now have come back. A bitset word covers exactly one row.
func (l *ledger) flushAll(ctx context.Context, t tracker) error {
	var keys []uint64
	for i, w := range l.written.words {
		if w != 0 {
			keys = append(keys, keyBase+uint64(i)*serveRowSize)
		}
	}
	for len(keys) > 0 {
		n := min(len(keys), 256)
		if err := l.apply(ctx, t, request{opFlush, keys[:n]}); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}

// violations checks write-back conservation after flushAll against the
// tracker's final stats: every key written came back in an eviction or
// a flush, nothing came back that was never written, nothing is left
// dirty, and the tracker's eviction and flush totals equal what the
// clients received.
func (l *ledger) violations(st dbi.Stats) []string {
	var out []string
	lost := l.written.countMissing(&l.returned)
	phantom := l.returned.countMissing(&l.written) + l.stray
	if lost > 0 {
		out = append(out, fmt.Sprintf("%d written keys never came back", lost))
	}
	if phantom > 0 {
		out = append(out, fmt.Sprintf("%d returned keys were never written", phantom))
	}
	if st.DirtyKeys != 0 {
		out = append(out, fmt.Sprintf("tracker still holds %d dirty keys", st.DirtyKeys))
	}
	if st.EvictedKeys != l.evicted {
		out = append(out, fmt.Sprintf("tracker evicted %d keys, clients received %d", st.EvictedKeys, l.evicted))
	}
	if st.FlushedKeys != l.flushed {
		out = append(out, fmt.Sprintf("tracker flushed %d keys, clients received %d", st.FlushedKeys, l.flushed))
	}
	return out
}

// --- open-loop driver ------------------------------------------------

// span is one request: when it was due, sent and answered, in ns since
// the phase started, and the wait a punctual generator would have seen.
//
// Latency is timed from the due time, but the generator's own wake-up
// lateness is not the server's: on a shared host a sleeping thread can
// wake milliseconds late while round trips stay steady. So the wait is
// reconstructed from the measured round trips by Lindley's recursion,
// wait[k] = max(0, wait[k-1] + trip[k-1] - interval): the queueing a slow
// answer imposes on the requests due behind it on its connection. The
// generator's real lateness (sent minus due) is reported on its own.
type span struct {
	op              opKind
	due, sent, done int64
	wait            int64
}

// latency is the request's time from due to answer with a punctual
// generator.
func (s span) latency() int64 { return s.wait + s.done - s.sent }

// phaseResult is one open-loop phase across all connections.
type phaseResult struct {
	spans   []span
	errors  int
	quarter int64 // due time (ns) where the phase's last quarter starts
	unsent  int   // requests given up unsent, counted in errors too
}

// backlogUs is the median reconstructed wait over the phase's last
// quarter: near zero while the server keeps up, growing with the queue
// once it cannot. A median ignores the brief stalls of a shared host
// that a maximum would report as backlog.
func (ph *phaseResult) backlogUs() float64 {
	var wait []float64
	for _, s := range ph.spans {
		if s.due >= ph.quarter {
			wait = append(wait, float64(s.wait)/1e3)
		}
	}
	return median(wait)
}

// windowTripUs splits the phase into windows of w by due time and
// returns each window's p50 and p90 round trip.
func (ph *phaseResult) windowTripUs(w time.Duration) (p50s, p90s []float64) {
	byWin := map[int64][]float64{}
	for _, s := range ph.spans {
		byWin[s.due/int64(w)] = append(byWin[s.due/int64(w)], float64(s.done-s.sent)/1e3)
	}
	for _, trip := range byWin {
		sort.Float64s(trip)
		p50s = append(p50s, percentile(trip, 50))
		p90s = append(p90s, percentile(trip, 90))
	}
	return p50s, p90s
}

// latencyUs returns the sorted latencies from due, in microseconds.
func (ph *phaseResult) latencyUs() []float64 {
	out := make([]float64, len(ph.spans))
	for i, s := range ph.spans {
		out[i] = float64(s.latency()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// runPhase drives every connection open-loop at rate requests/s in
// total for d: request k of a connection is due at k × conns/rate and
// is timed from that due time, so a stall charges the wait it imposes
// on later requests.
func runPhase(ctx context.Context, conns []*dbiclient.Client, streams []*reqStream, leds []*ledger, rate float64, d time.Duration) phaseResult {
	interval := time.Duration(float64(len(conns)) * float64(time.Second) / rate)
	n := int(d / interval)
	ph := phaseResult{quarter: int64(d) * 3 / 4}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spans := make([]span, 0, n)
			errs, unsent := 0, 0
			var wait, prevTrip time.Duration
			for k := 0; k < n; k++ {
				due := time.Duration(k) * interval
				if time.Since(start) > 3*d {
					// A server this far behind would keep the run going
					// for minutes; what is left unsent counts as failed.
					unsent = n - k
					fmt.Fprintf(os.Stderr, "perfbench: connection %d gave up %d requests at %.0f req/s\n", c, n-k, rate)
					break
				}
				r := streams[c].next()
				pace(start, due)
				sent := time.Since(start)
				err := leds[c].apply(ctx, conns[c], r)
				done := time.Since(start)
				if err != nil {
					errs++
					fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %v\n", opNames[r.op], err)
				}
				trip := done - sent
				if k > 0 {
					wait = max(0, wait+prevTrip-interval)
				}
				prevTrip = trip
				spans = append(spans, span{r.op, int64(due), int64(sent), int64(done), int64(wait)})
			}
			mu.Lock()
			defer mu.Unlock()
			ph.spans = append(ph.spans, spans...)
			ph.errors += errs + unsent
			ph.unsent += unsent
		}(c)
	}
	wg.Wait()
	return ph
}

// pace blocks until due has passed since start. It sleeps in a raw
// nanosleep: the runtime's timers wake with about a millisecond of
// granularity on Linux, which would turn the 667µs between one
// connection's requests into bursts. The overshoot that remains is the
// generator's lateness, reported on its own and kept out of latency
// (see span).
func pace(start time.Time, due time.Duration) {
	for {
		w := due - time.Since(start)
		if w <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(w))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// --- the server process ----------------------------------------------

type server struct {
	cmd      *exec.Cmd
	tcp, web string
}

// startServer starts dbiserved on ephemeral loopback ports and returns
// once it has answered a ping, with the time that took.
func startServer(bin string) (*server, float64, error) {
	args := append([]string{"serve", "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0"}, serveArgs...)
	start := time.Now()
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd}
	sc := bufio.NewScanner(out)
	for (s.tcp == "" || s.web == "") && sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "binary protocol on "); ok {
			s.tcp = strings.Fields(rest)[0]
		} else if _, rest, ok := strings.Cut(line, "ops plane on "); ok {
			s.web = strings.Fields(rest)[0]
		}
	}
	if s.tcp == "" || s.web == "" {
		s.stop()
		return nil, 0, fmt.Errorf("dbiserved did not report its listeners")
	}
	go func() { _, _ = io.Copy(io.Discard, out) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := dbiclient.Dial(ctx, s.tcp)
	if err == nil {
		err = cl.Ping(ctx)
		cl.Close()
	}
	if err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("first request to dbiserved: %w", err)
	}
	return s, time.Since(start).Seconds(), nil
}

// stop terminates the server and waits for it.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// cpuSeconds sums the CPU time the server's threads have run so far,
// from each task's schedstat (nanoseconds; /proc/<pid>/stat would give
// only 10ms ticks).
func (s *server) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited since the listing
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat for task %s: %w", t.Name(), err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

func (s *server) stats() (dbi.Stats, error) {
	var st dbi.Stats
	resp, err := http.Get("http://" + s.web + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// counters reads the dbi_serve_* counters from /metrics.
func (s *server) counters() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.web + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "dbi_serve_") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// --- the workload ----------------------------------------------------

// serveLoad is one measured load on a fresh server.
type serveLoad struct {
	fixed     phaseResult
	maxRates  []float64 // highest passing rung of each ladder
	requests  int
	errors    int
	sent      [serveConns]int // requests each connection sent before the final flush
	led       ledger
	stats     dbi.Stats
	before    map[string]float64
	after     map[string]float64
	rssMB     float64
	fixedCPUS float64 // server CPU time during the fixed-rate phase
	setupS    []float64
	profile   []byte
}

// rungPasses applies the capacity criterion to one ladder rung.
func rungPasses(ph phaseResult) bool {
	return ph.errors == 0 && percentile(ph.latencyUs(), 90) <= serveP90LimitUs &&
		ph.backlogUs() <= serveBacklogLimitUs
}

// runServeLoad starts servers for the set-up samples and keeps the last
// one. On it, the load runs at the fixed rate; with profile set, the
// client process is CPU-profiled and the capacity ladders follow.
// Finally every written row is flushed for the conservation check.
func runServeLoad(p params, profile bool) (*serveLoad, error) {
	ld := &serveLoad{}
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		s, secs, err := startServer(p.dbiserved)
		if err != nil {
			return nil, err
		}
		ld.setupS = append(ld.setupS, secs)
		if i < setupRepeats-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	ctx := context.Background()
	conns := make([]*dbiclient.Client, serveConns)
	streams := make([]*reqStream, serveConns)
	leds := make([]*ledger, serveConns)
	for c := range conns {
		cl, err := dbiclient.Dial(ctx, srv.tcp)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		conns[c] = cl
		if streams[c], err = newStream(c, p.seed); err != nil {
			return nil, err
		}
		leds[c] = &ledger{}
	}
	var err error
	if ld.before, err = srv.counters(); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}

	phase := func(rate float64, secs float64) phaseResult {
		ph := runPhase(ctx, conns, streams, leds, rate, time.Duration(secs*float64(time.Second)))
		ld.errors += ph.errors
		ld.requests += len(ph.spans) + ph.unsent
		return ph
	}
	// An untraced run spends all its seconds at the fixed rate; a traced
	// one spends half there and then climbs the capacity ladders.
	fixedSecs := p.seconds
	if profile {
		fixedSecs /= 2
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ld.fixed = phase(serveFixedRate, fixedSecs)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ld.fixedCPUS = cpu1 - cpu0
	for l := 0; profile && l < serveLadders; l++ {
		best, fails := 0.0, 0
		for _, rate := range serveLadder() {
			ph := phase(rate, serveRungSeconds)
			if rungPasses(ph) {
				best, fails = rate, 0
			} else if fails++; fails == 2 {
				break
			}
		}
		ld.maxRates = append(ld.maxRates, best)
	}
	if profile {
		pprof.StopCPUProfile()
		ld.profile = prof.Bytes()
	}

	for c := range conns {
		ld.sent[c] = leds[c].requests
		ld.led.merge(leds[c])
	}
	if err := ld.led.flushAll(ctx, conns[0]); err != nil {
		return nil, err
	}
	if ld.after, err = srv.counters(); err != nil {
		return nil, err
	}
	if ld.stats, err = srv.stats(); err != nil {
		return nil, err
	}
	if ld.rssMB, err = peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil
	return ld, nil
}

func runServe(p params) (outcome, error) {
	var o outcome
	if p.dbiserved == "" {
		return o, fmt.Errorf("serve-mixed needs -dbiserved")
	}
	ld, err := runServeLoad(p, false)
	if err != nil {
		return o, err
	}
	checkServe(&o, ld)
	o.set("setup_s", median(ld.setupS))
	// Requests served per second of server CPU at the fixed load: the
	// server's cost per request, which a shared host's stalls disturb
	// far less than they disturb any wall-clock capacity search.
	o.set("rate_per_s", float64(len(ld.fixed.spans))/ld.fixedCPUS)
	o.set("peak_rss_mb", ld.rssMB)
	// The round trip's median and p90 per half-second window, then the
	// median over windows, so a host stall moves the windows it falls in
	// rather than the run's figure. The time from due (see span) feeds
	// the tail rule and serve.due_p50_us.
	p50s, p90s := ld.fixed.windowTripUs(serveWindow)
	o.set("latency.p50_us", median(p50s))
	o.set("latency.p90_us", median(p90s))
	due := ld.fixed.latencyUs()
	setTail(&o, due)
	o.set("serve.due_p50_us", percentile(due, 50))
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed round trip over %d windows: p50 %.1fµs, p90 %.1fµs\n",
		len(p50s), median(p50s), median(p90s))
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed %d requests at %d req/s in %.2f server CPU s\n",
		len(ld.fixed.spans), serveFixedRate, ld.fixedCPUS)
	if !p.trace {
		return o, nil
	}

	tr, err := runServeLoad(p, true)
	if err != nil {
		return o, err
	}
	checkServe(&o, tr)
	trP50s, _ := tr.fixed.windowTripUs(serveWindow)
	o.set("tracing.overhead_pct", 100*(median(trP50s)/o.metrics["latency.p50_us"]-1))
	lp, err := foldProfile(tr.profile)
	if err != nil {
		return o, err
	}
	o.set("tracing.profile_samples", float64(lp.Samples))
	rtt := map[opKind][]float64{}
	var late []float64
	for _, s := range tr.fixed.spans {
		rtt[s.op] = append(rtt[s.op], float64(s.done-s.sent)/1e3)
		late = append(late, float64(s.sent-s.due)/1e3)
	}
	o.set("client.set_us_p50", median(rtt[opSet]))
	o.set("client.isdirty_us_p50", median(rtt[opIsDirty]))
	o.set("client.flush_us_p50", median(rtt[opFlush]))
	sort.Float64s(late)
	o.set("loadgen.late_us_p99", percentile(late, 99))
	apply, err := replayTracker(p.seed, tr.sent)
	if err != nil {
		return o, err
	}
	o.set("tracker.set_batch_us", median(apply[opSet]))
	o.set("tracker.isdirty_batch_us", median(apply[opIsDirty]))
	o.set("tracker.flush_us", median(apply[opFlush]))
	if tr.stats.Evictions > 0 {
		o.set("tracker.keys_per_eviction", float64(tr.stats.EvictedKeys)/float64(tr.stats.Evictions))
	}
	o.set("serve.max_rps", median(tr.maxRates))
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed capacity per ladder %v req/s\n", tr.maxRates)
	o.set("serve.requests", tr.counter("bin_requests"))
	o.set("serve.errors", tr.counter("errors"))
	return o, nil
}

// checkServe counts every request and every conservation invariant as
// an attempted operation.
func checkServe(o *outcome, ld *serveLoad) {
	o.attempted += ld.requests
	if ld.errors > 0 {
		o.fail(ld.errors, "%d requests failed", ld.errors)
	}
	v := ld.led.violations(ld.stats)
	if reqs := ld.counter("bin_requests"); reqs != float64(ld.led.requests) {
		v = append(v, fmt.Sprintf("server counted %.0f requests, clients sent %d", reqs, ld.led.requests))
	}
	if errs := ld.counter("errors"); errs != 0 {
		v = append(v, fmt.Sprintf("server counted %.0f errors", errs))
	}
	o.attempted += conservationChecks
	for _, s := range v {
		o.fail(1, "serve conservation: %s", s)
	}
}

// conservationChecks is the number of invariants checkServe verifies.
const conservationChecks = 7

// counter returns a dbi_serve_* counter's change over the load.
func (ld *serveLoad) counter(name string) float64 {
	n := "dbi_serve_" + name + "_total"
	return ld.after[n] - ld.before[n]
}

// newServerTracker builds an in-process tracker configured as the
// served one.
func newServerTracker() (*dbi.Sharded, error) {
	repl, err := dbi.ParseReplacement(serveRepl)
	if err != nil {
		return nil, err
	}
	return dbi.NewSharded(serveShards, dbi.WithRows(serveRows), dbi.WithRowSize(serveRowSize),
		dbi.WithAssociativity(serveAssoc), dbi.WithReplacement(repl), dbi.WithSeed(1))
}

// replayTracker regenerates the requests each connection sent and
// applies them round-robin to an in-process tracker configured as the
// server's, timing each batch call: the tracker's share of a round
// trip, the rest being protocol, server loop and loopback.
func replayTracker(seed int64, sent [serveConns]int) (map[opKind][]float64, error) {
	tr, err := newServerTracker()
	if err != nil {
		return nil, err
	}
	var streams [serveConns]*reqStream
	for c := range streams {
		if streams[c], err = newStream(c, seed); err != nil {
			return nil, err
		}
	}
	out := map[opKind][]float64{}
	var keys, dst []dbi.Key
	var bools []bool
	for i, more := 0, true; more; i++ {
		more = false
		for c, st := range streams {
			if i >= sent[c] {
				continue
			}
			more = true
			r := st.next()
			keys = keys[:0]
			for _, k := range r.keys {
				keys = append(keys, dbi.Key(k))
			}
			t := time.Now()
			switch r.op {
			case opSet:
				dst = tr.SetDirtyBatch(keys, dst[:0])
			case opIsDirty:
				bools = tr.IsDirtyBatch(keys, bools[:0])
			case opFlush:
				dst = tr.FlushRowsInto(keys, dst[:0])
			}
			out[r.op] = append(out[r.op], float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	return out, nil
}
