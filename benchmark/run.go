package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"sdpopt"
)

// config is one invocation's input.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	// scale < 1 shrinks pools, warm-ups and the replay for smoke tests; the
	// driver always runs at 1.
	scale   float64
	clients int
	outDir  string
}

// setupRepeats is how many times a run sets the system up; setup_s is the
// median, which one slow set-up cannot move.
const setupRepeats = 3

// errInvalid marks a run whose numbers nobody should trust; main exits
// non-zero without printing a result.
var errInvalid = errors.New("invalid run")

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// live is a system that is set up, warm and listening.
type live struct {
	cat    *sdpopt.Catalog
	pool   *pool
	chk    *checker
	sys    *system
	client *http.Client
	// next is the sequence position the warm-up stopped at.
	next int
}

// fillSequence lists every distinct body once.
func fillSequence(p *pool) []reqRef {
	var seq []reqRef
	for e := range p.entries {
		for s := range p.entries[e].bodies {
			seq = append(seq, reqRef{entry: int32(e), spelling: int32(s)})
		}
	}
	return seq
}

// setUp builds everything that exists before the first measured request:
// catalog, seeded request pool (reference costs copied from refs, which were
// computed once, outside the timing), server, listener, warm-up.
func setUp(cfg config, refs *pool) (*live, error) {
	cat := sdpopt.PaperSchema()
	p, err := buildPool(cat, cfg.w, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	for i := range p.entries {
		p.entries[i].refCost = refs.entries[i].refCost
	}
	sys, err := newSystem(cat, cfg.w, true)
	if err != nil {
		return nil, err
	}
	if err := sys.listen(); err != nil {
		return nil, err
	}
	lv := &live{cat: cat, pool: p, chk: newChecker(p), sys: sys, client: newClient(cfg.clients)}
	if cfg.w.shadow {
		if err := lv.primeShadow(cfg); err != nil {
			lv.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	warm := lv.phase(cfg)
	n := scaled(cfg.w.warmup, cfg.scale)
	if cfg.w.fill {
		fill := *p
		fill.sequence = fillSequence(p)
		warm.pool, n = &fill, len(fill.sequence)
	} else {
		lv.next = n
	}
	if err := warmupErr(warm.closed(n, 0)); err != nil {
		lv.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := sys.drainShadow(); err != nil {
		lv.close()
		return nil, fmt.Errorf("warm-up: shadow drain: %w", err)
	}
	return lv, nil
}

// primeShadow sends every pool entry often enough in a row that the shadow
// layer samples it, one client leaving the other processor to the shadow
// worker, until each entry has a completed shadow sample. The router's
// regret view then starts every run from the same state, instead of
// promoting a route whenever the samples happen to arrive.
func (lv *live) primeShadow(cfg config) error {
	prime := *lv.pool
	prime.sequence = nil
	for e := range prime.entries {
		for k := 0; k < int(math.Ceil(1/shadowSampleRate)); k++ {
			prime.sequence = append(prime.sequence, reqRef{entry: int32(e)})
		}
	}
	for round := 0; round < 4; round++ {
		ph := lv.phase(cfg)
		ph.pool, ph.clients = &prime, 1
		if err := warmupErr(ph.closed(len(prime.sequence), 0)); err != nil {
			return err
		}
		if err := lv.sys.drainShadow(); err != nil {
			return fmt.Errorf("shadow drain: %w", err)
		}
		if done := lv.sys.srv.Regret().Snapshot().Counts.Completed; done >= int64(len(prime.entries)) {
			return nil
		}
	}
	return fmt.Errorf("%w: the shadow layer did not sample every pool entry", errInvalid)
}

func (lv *live) phase(cfg config) *phase {
	return &phase{sys: lv.sys, pool: lv.pool, chk: lv.chk, client: lv.client, clients: cfg.clients, offset: lv.next}
}

func (lv *live) close() error {
	lv.client.CloseIdleConnections()
	return lv.sys.close()
}

// extraP gives an open-loop workload one P more than there are processors
// and returns the function that undoes it. The dispatcher must run when a
// request is due; with as many Ps as processors it waits behind the server's
// enumeration loops, which yield only at the runtime's 10 ms preemption
// tick. One P more leaves that choice to the kernel's scheduler.
func extraP(cfg config) (restore func()) {
	if !cfg.w.open {
		return func() {}
	}
	old := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	return func() { runtime.GOMAXPROCS(old) }
}

// warmupFailureLimit is the share of warm-up requests that may fail before
// the set-up is abandoned. A cold router can send a heavy query to an engine
// that misses the deadline; that is what a warm-up is for, and it must not
// stop the run, but a system that fails a twentieth of its warm-up is broken.
const warmupFailureLimit = 0.05

func warmupErr(res *phaseResult) error {
	failed := 0
	for _, s := range res.samples {
		if !s.ok {
			failed++
		}
	}
	if float64(failed) > warmupFailureLimit*float64(len(res.samples)) {
		return fmt.Errorf("%d of %d warm-up requests failed; first: %s", failed, len(res.samples), res.firstErr)
	}
	return nil
}

// prepare computes the reference costs once and sets the system up
// setupRepeats times, keeping the last one. It returns the median set-up
// time in seconds.
func prepare(cfg config, repeats int) (*live, float64, error) {
	refs, err := referencePool(cfg, 0)
	if err != nil {
		return nil, 0, err
	}
	if err := checkGolden(cfg, refs); err != nil {
		return nil, 0, err
	}
	var lv *live
	var times []float64
	for r := 0; r < repeats; r++ {
		if lv != nil {
			if err := lv.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		lv, err = setUp(cfg, refs)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return lv, median(times), nil
}

// usage is a snapshot of the process's resource counters. It is read at
// every cycle boundary, so it uses runtime/metrics, which unlike
// runtime.ReadMemStats does not stop the world.
type usage struct {
	cpu            time.Duration
	objects, bytes uint64
	gcCycles       uint64
	gcCPU          float64 // seconds
}

// minus returns the counters consumed between v and u.
func (u usage) minus(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, objects: u.objects - v.objects, bytes: u.bytes - v.bytes, gcCycles: u.gcCycles - v.gcCycles, gcCPU: u.gcCPU - v.gcCPU}
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	u := usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.objects, u.bytes, u.gcCycles = s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[3].Value.Float64()
	}
	return u
}

// sampleCapacity is the sample buffer of one client in a measured phase:
// room for a quarter of a million requests, which a faster host may exceed
// (the buffer then grows like any slice).
const sampleCapacity = 1 << 18

// measured is the measured phase with the resource counters around it.
type measured struct {
	res           *phaseResult
	cycle         int
	before, after usage
}

// measure runs the workload's measured phase for d.
func measure(cfg config, lv *live, d time.Duration) *measured {
	ph := lv.phase(cfg)
	ph.markEvery, ph.capacity = lv.pool.cycle, sampleCapacity
	// Start every run from a collected heap, so that how much garbage the
	// set-up left behind does not decide when the first cycle falls.
	runtime.GC()
	m := &measured{cycle: lv.pool.cycle, before: readUsage()}
	if cfg.w.open {
		m.res = ph.open(arrivalSchedule(cfg.seed, cfg.w.rate, d.Seconds()))
	} else {
		m.res = ph.closed(0, d)
	}
	m.after = readUsage()
	return m
}

// maxWindows is how many windows a run is cut into. Each metric that can be
// taken per window is reported as the median over the windows, which a
// stall or a noisy neighbour lasting a second or two cannot move.
const maxWindows = 10

// latencyWindows splits the samples, in completion order, into up to
// maxWindows equal windows of at least minWindow requests, and returns the
// medians over the windows of each window's median latency, 99th percentile
// latency (nearest rank, nanoseconds) and share of requests answered
// correctly within limitNS.
func latencyWindows(byDone []sample, minWindow int, limitNS float64) (p50, p99, within float64) {
	windows := len(byDone) / minWindow
	if windows > maxWindows {
		windows = maxWindows
	}
	if windows < 1 {
		windows = 1
	}
	var p50s, p99s, shares []float64
	for w := 0; w < windows; w++ {
		lo, hi := w*len(byDone)/windows, (w+1)*len(byDone)/windows
		lat := make([]float64, 0, hi-lo)
		ok := 0
		for _, s := range byDone[lo:hi] {
			lat = append(lat, float64(s.latNS))
			if s.ok && float64(s.latNS) <= limitNS {
				ok++
			}
		}
		sort.Float64s(lat)
		p50s = append(p50s, percentile(lat, 50))
		p99s = append(p99s, percentile(lat, 99))
		shares = append(shares, float64(ok)/float64(hi-lo))
	}
	return median(p50s), median(p99s), median(shares)
}

// window is a stretch of whole cycles: its length in seconds, its request
// count and the resource counters it consumed.
type window struct {
	secs, reqs float64
	used       usage
}

// cycleWindows groups the run's complete cycles into up to maxWindows
// windows of equal cycle count. Every cycle of a weighted mix holds the same
// requests, so the windows compare.
func cycleWindows(m *measured) []window {
	marks := append([]mark{{u: m.before}}, m.res.marks...)
	sort.Slice(marks, func(i, j int) bool { return marks[i].doneNS < marks[j].doneNS })
	cycles := len(marks) - 1
	n := cycles
	if n > maxWindows {
		n = maxWindows
	}
	windows := make([]window, n)
	for w := range windows {
		lo, hi := w*cycles/n, (w+1)*cycles/n
		windows[w] = window{
			secs: float64(marks[hi].doneNS-marks[lo].doneNS) / 1e9,
			reqs: float64((hi - lo) * m.cycle),
			used: marks[hi].u.minus(marks[lo].u),
		}
	}
	return windows
}

// failures counts the failed requests of a phase; a refusal is not one (see
// sample.refused).
func failures(samples []sample) int {
	failed := 0
	for _, s := range samples {
		if !s.ok && !s.refused() {
			failed++
		}
	}
	return failed
}

// newResult starts the result object of a measured phase; the caller adds
// the metrics.
func newResult(res *phaseResult) *result {
	attempted, failed := len(res.samples), failures(res.samples)
	if failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d of %d requests failed; first: %s\n", failed, attempted, res.firstErr)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
}

// endToEndMetrics computes the end-to-end metrics of one measured phase.
// Rates and per-request costs are medians over cycle windows, latencies and
// the share within the limit medians over latency windows; the cost ratio
// counts every answer.
func endToEndMetrics(cfg config, lv *live, m *measured, setupS float64) map[string]float64 {
	byDone := append([]sample(nil), m.res.samples...)
	sort.Slice(byDone, func(i, j int) bool { return byDone[i].doneNS < byDone[j].doneNS })
	var okCount int
	var logRho float64
	for _, s := range byDone {
		if s.ok {
			okCount++
			logRho += math.Log(s.cost / lv.pool.entries[s.entry].refCost)
		}
	}
	p50, p99, within := latencyWindows(byDone, cfg.w.minWindow, cfg.w.limitMS*1e6)
	var rps, cpu, objects, kb []float64
	for _, w := range cycleWindows(m) {
		rps = append(rps, w.reqs/w.secs)
		cpu = append(cpu, float64(w.used.cpu)/1e6/w.reqs)
		objects = append(objects, float64(w.used.objects)/w.reqs)
		kb = append(kb, float64(w.used.bytes)/1024/w.reqs)
	}
	return map[string]float64{
		"setup_s":                 setupS,
		"throughput_rps":          median(rps) * float64(okCount) / float64(len(byDone)),
		"latency_p50_ms":          p50 / 1e6,
		"latency_p99_ms":          p99 / 1e6,
		"slo_attained_share":      within,
		"plan_cost_ratio_geomean": math.Exp(ratio(logRho, float64(okCount))),
		"cpu_ms_per_request":      median(cpu),
		"allocs_per_request":      median(objects),
		"alloc_kb_per_request":    median(kb),
	}
}

// validate applies the guards that make a run's numbers untrustworthy
// whatever they are.
func validate(cfg config, m *measured) error {
	if len(m.res.marks) == 0 {
		return fmt.Errorf("%w: %d requests in %.3g s do not fill one cycle of %d; measure for longer", errInvalid, len(m.res.samples), cfg.seconds, m.cycle)
	}
	if cfg.w.fill {
		for _, s := range m.res.samples {
			if s.ok && s.source != srcHit {
				return fmt.Errorf("%w: %s saw a cache miss during measurement; every request must be a hit", errInvalid, cfg.w.name)
			}
		}
	}
	if cfg.w.open {
		if lag := lagMS(m.res, 90); lag > maxGeneratorLagMS {
			return fmt.Errorf("%w: generator ran %.2f ms late at the 90th percentile (limit %g ms); the arrival schedule was not kept", errInvalid, lag, maxGeneratorLagMS)
		}
	}
	return nil
}

// maxGeneratorLagMS is how late the open-loop dispatcher may hand over a
// request, at the 90th percentile, before the schedule counts as not kept.
// The guard is on the 90th percentile because it is meant to catch a
// generator that is starved throughout; one stall of the host for a fifth of
// a second puts thirty arrivals, 1 % of a run, tens of milliseconds late,
// and that already shows, as it should, in latency_p99_ms. The 99th
// percentile is reported as bench.generator_lag_p99_ms.
const maxGeneratorLagMS = 10.0

// lagMS returns the p-th percentile of the dispatcher's lateness in ms, 0
// for a closed loop.
func lagMS(res *phaseResult, p float64) float64 {
	if len(res.lagNS) == 0 {
		return 0
	}
	lag := make([]float64, len(res.lagNS))
	for i, l := range res.lagNS {
		lag[i] = float64(l)
	}
	sort.Float64s(lag)
	return percentile(lag, p) / 1e6
}

// runEndToEnd is a --trace 0 run.
func runEndToEnd(cfg config) (*result, error) {
	defer extraP(cfg)()
	lv, setupS, err := prepare(cfg, setupRepeats)
	if err != nil {
		return nil, err
	}
	m := measure(cfg, lv, time.Duration(cfg.seconds*float64(time.Second)))
	if err := lv.close(); err != nil {
		return nil, err
	}
	if err := validate(cfg, m); err != nil {
		return nil, err
	}
	values := endToEndMetrics(cfg, lv, m, setupS)
	res := newResult(m.res)
	for _, s := range endToEnd {
		res.Metrics[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}
	return res, nil
}
