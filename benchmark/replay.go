package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"sdpopt"
)

// nullWriter is the response writer of an in-process handler call: it keeps
// the status and the body and implements http.Flusher, which the handler
// uses before it offers the request to the shadow layer.
type nullWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) WriteHeader(code int)        { w.status = code }
func (w *nullWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *nullWriter) Flush()                      {}

func (w *nullWriter) reset() {
	w.header, w.status = http.Header{}, http.StatusOK
	w.body.Reset()
}

// handlerPass calls a server's handler in process.
type handlerPass struct {
	handler http.Handler
	w       nullWriter
	// noObs clears the process-wide default observer around each call, so
	// that the engines, which fall back to it, also run unobserved.
	noObs bool
}

func newHandlerPass(sys *system, noObs bool) *handlerPass {
	return &handlerPass{handler: sys.srv.Handler(), noObs: noObs}
}

// serve returns the handler's wall time for one body and the decoded answer.
func (h *handlerPass) serve(body []byte, resp *optimizeResponse) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	h.w.reset()
	var saved *sdpopt.Observer
	if h.noObs {
		saved = sdpopt.DefaultObserver()
		sdpopt.SetDefaultObserver(nil)
	}
	t0 := time.Now()
	h.handler.ServeHTTP(&h.w, req)
	d := time.Since(t0)
	if h.noObs {
		sdpopt.SetDefaultObserver(saved)
	}
	*resp = optimizeResponse{}
	if err := json.Unmarshal(h.w.body.Bytes(), resp); err != nil {
		return d, fmt.Errorf("decode response: %w", err)
	}
	if h.w.status != http.StatusOK {
		return d, fmt.Errorf("status %d: %s", h.w.status, resp.Error)
	}
	return d, nil
}

// replay is the traced run: the first K requests of the measured sequence
// again, single-threaded and in process, four ways per request:
//
//	handler  through the server's handler, default observer
//	bare     through the handler of a server built without an observer
//	staged   through the benchmark's stage-by-stage pipeline, recorder off
//	traced   the same pipeline with a span around every stage
//
// Each way has its own server or cache, warmed the same way, so all four
// see the same hits and misses. The order of the four rotates from request
// to request so that none of them always runs on a cold processor cache.
type replay struct {
	handlerNS, bareNS, stagedNS, tracedNS []float64
	spans                                 []span
	requests                              int
}

// runReplay replays up to w.replayK requests within budget.
func runReplay(cfg config, lv *live, budget time.Duration) (*replay, error) {
	handlerSys, err := newSystem(lv.cat, cfg.w, true)
	if err != nil {
		return nil, err
	}
	defer handlerSys.close()
	// The bare system is built second so that the default observer, which
	// the staged passes and the handler pass's engines report to, stays the
	// handler system's.
	bareSys, err := newSystem(lv.cat, cfg.w, false)
	if err != nil {
		return nil, err
	}
	defer bareSys.close()
	handler, bare := newHandlerPass(handlerSys, false), newHandlerPass(bareSys, true)

	router := handlerSys.srv.Router()
	decide := func(rels int, shape string, remaining time.Duration) (string, time.Duration) {
		d := router.DecideObserved(rels, shape, remaining, 0)
		return d.Technique, d.Reserve
	}
	k := scaled(cfg.w.replayK, cfg.scale)
	newPipeline := func(rec *recorder) *pipeline {
		return &pipeline{
			cat: lv.cat, catVersion: sdpopt.CatalogFingerprint(lv.cat), decide: decide, rec: rec,
			cache: sdpopt.NewPlanCache(sdpopt.PlanCacheOptions{MaxEntries: cfg.w.cacheEntries, Obs: sdpopt.DefaultObserver()}),
		}
	}
	staged := newPipeline(&recorder{})
	traced := newPipeline(newRecorder(k * 16))

	// Warm-up: what the measured server saw before measurement, through each
	// way's own path. Only caches and the router carry state, so a workload
	// that bypasses the cache warms the two servers' routers and nothing
	// else, and with fewer requests.
	warm := lv.pool.sequence[:scaled(cfg.w.warmup, cfg.scale)]
	if cfg.w.fill {
		warm = fillSequence(lv.pool)
	}
	if cfg.w.noCache && len(warm) > 200 {
		warm = warm[:200]
	}
	var resp optimizeResponse
	for _, ref := range warm {
		body := lv.pool.entries[ref.entry].bodies[ref.spelling]
		// A cold router may miss a deadline here, as in any warm-up.
		_, _ = handler.serve(body, &resp)
		_, _ = bare.serve(body, &resp)
		if !cfg.w.noCache {
			if _, _, err := staged.serve(0, body); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
			if _, _, err := traced.serve(0, body); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
	}
	if err := handlerSys.drainShadow(); err != nil {
		return nil, err
	}
	if err := bareSys.drainShadow(); err != nil {
		return nil, err
	}

	rp := &replay{}
	traced.rec.on = true
	traced.rec.epoch = time.Now()
	runtime.GC()
	deadline := time.Now().Add(budget)
	for i := 0; i < k && time.Now().Before(deadline); i++ {
		ref := lv.pool.sequence[(lv.next+i)%len(lv.pool.sequence)]
		body := lv.pool.entries[ref.entry].bodies[ref.spelling]
		var hNS, bNS, sNS, tNS time.Duration
		for way := 0; way < 4; way++ {
			var err error
			switch (way + i) % 4 {
			case 0:
				if hNS, err = handler.serve(body, &resp); err == nil {
					err = lv.chk.check(int(ref.entry), handler.w.status, &resp)
				}
			case 1:
				bNS, err = bare.serve(body, &resp)
			case 2:
				t0 := time.Now()
				_, _, err = staged.serve(i, body)
				sNS = time.Since(t0)
			case 3:
				t0 := time.Now()
				_, _, err = traced.serve(i, body)
				tNS = time.Since(t0)
			}
			if err != nil {
				return nil, fmt.Errorf("replay request %d (%s): %w", i, lv.pool.entries[ref.entry].label, err)
			}
		}
		rp.handlerNS = append(rp.handlerNS, float64(hNS))
		rp.bareNS = append(rp.bareNS, float64(bNS))
		rp.stagedNS = append(rp.stagedNS, float64(sNS))
		rp.tracedNS = append(rp.tracedNS, float64(tNS))
		rp.requests++
	}
	rp.spans = traced.rec.spans
	if rp.requests == 0 {
		return nil, fmt.Errorf("%w: the replay budget of %v held no request", errInvalid, budget)
	}
	return rp, nil
}

// layerTimes aggregates the traced pass's spans. self[name] holds, per
// request that has such spans, the summed self time of the spans with that
// name; counts[name][key] the summed counter over all of them.
type layerTimes struct {
	self   map[string][]float64
	total  map[string]float64
	counts map[string]map[string]float64
	// stages is, per request, the summed self time of every span but the
	// request's root, whose self time is the recorder's own cost.
	stages []float64
}

func aggregate(spans []span, requests int) *layerTimes {
	lt := &layerTimes{self: map[string][]float64{}, total: map[string]float64{}, counts: map[string]map[string]float64{}, stages: make([]float64, requests)}
	self := selfTimes(spans)
	perReq := map[string]map[int]float64{}
	for i, s := range spans {
		if s.Parent < 0 {
			continue
		}
		if perReq[s.Name] == nil {
			perReq[s.Name] = map[int]float64{}
			lt.counts[s.Name] = map[string]float64{}
		}
		perReq[s.Name][s.Trace] += float64(self[i])
		lt.total[s.Name] += float64(self[i])
		lt.stages[s.Trace] += float64(self[i])
		for k, v := range s.Counts {
			if k == "peak_sim_bytes" {
				if float64(v) > lt.counts[s.Name][k] {
					lt.counts[s.Name][k] = float64(v)
				}
				continue
			}
			lt.counts[s.Name][k] += float64(v)
		}
	}
	for name, m := range perReq {
		for _, v := range m {
			lt.self[name] = append(lt.self[name], v)
		}
	}
	return lt
}

// medianOf returns the per-request median self time of the named spans in
// the given unit (nanoseconds per unit), 0 when the workload has none.
func (lt *layerTimes) medianOf(unit float64, names ...string) float64 {
	var all []float64
	for _, n := range names {
		all = append(all, lt.self[n]...)
	}
	return median(all) / unit
}

// pardpSpeedup times OptimizeDP with one and with two workers on the
// workload's queries that have a DP reference and enough relations for the
// answer to mean something, alternating, within budget.
func pardpSpeedup(p *pool, budget time.Duration) float64 {
	var qs []*sdpopt.Query
	seen := map[string]bool{}
	for i := range p.entries {
		e := &p.entries[i]
		if e.ref == "dp" && len(e.queries[0].Rels) >= 10 && !seen[e.label] {
			seen[e.label] = true
			qs = append(qs, e.queries[0])
		}
	}
	var one, two time.Duration
	deadline := time.Now().Add(budget)
	for _, q := range qs {
		if !time.Now().Before(deadline) {
			break
		}
		for _, workers := range []int{1, 2, 2, 1} {
			t0 := time.Now()
			if _, _, err := sdpopt.OptimizeDP(q, sdpopt.DPOptions{Budget: sdpopt.DefaultBudget, Ctx: context.Background(), Workers: workers}); err != nil {
				return 0
			}
			if workers == 1 {
				one += time.Since(t0)
			} else {
				two += time.Since(t0)
			}
		}
	}
	return ratio(float64(one), float64(two))
}

// closureBounds is the band the summed stage times must stay in, as a share
// of the handler's time, for the per-layer numbers to count as accounting
// for the handler: below it the staged pipeline has lost a stage the handler
// still runs, above it the recorder's overhead is being read as layer time.
// On warm-hit the stages are 0.89 of the handler today and the largest of
// them a little under half; the lower edge leaves room to halve any stage and
// still trips when a stage goes missing. A shrunken smoke run replays too few
// requests for the ratio to mean anything and is not checked.
var closureBounds = [2]float64{0.70, 1.10}

// runTraced is a --trace 1 run: a shorter measured phase for the layer
// metrics that come from answers and public counters, then the replay.
func runTraced(cfg config) (*result, error) {
	defer extraP(cfg)()
	lv, _, err := prepare(cfg, 1)
	if err != nil {
		return nil, err
	}
	seconds := func(share float64) time.Duration { return time.Duration(cfg.seconds * share * float64(time.Second)) }
	m := measure(cfg, lv, seconds(0.35))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cacheCounts := lv.sys.cache.Counts()
	regretCounts := lv.sys.srv.Regret().Snapshot().Counts
	if err := lv.close(); err != nil {
		return nil, err
	}
	if err := validate(cfg, m); err != nil {
		return nil, err
	}
	rp, err := runReplay(cfg, lv, seconds(0.5))
	if err != nil {
		return nil, err
	}
	path, err := writeTrace(cfg.outDir, cfg.w.name, rp.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "benchmark: %s: %d replayed requests, %d spans in %s\n", cfg.w.name, rp.requests, len(rp.spans), path)
	speedup := pardpSpeedup(lv.pool, seconds(0.1))

	lt := aggregate(rp.spans, rp.requests)
	n := float64(len(m.res.samples))
	var shed, timeouts, err5xx, wrong float64
	var srvMS, transport []float64
	src := map[uint8]float64{}
	tech := map[uint8]float64{}
	reason := map[uint8]float64{}
	for _, s := range m.res.samples {
		src[s.source]++
		tech[s.tech]++
		reason[s.reason]++
		switch {
		case s.ok:
			srvMS = append(srvMS, float64(s.serverNS)/1e6)
			transport = append(transport, float64(s.rttNS-s.serverNS)/1e3)
		case s.status == http.StatusTooManyRequests:
			shed++
		case s.status == http.StatusGatewayTimeout:
			timeouts++
		case s.status >= 500:
			err5xx++
		case s.status == http.StatusOK:
			wrong++
		}
	}
	cached := src[srcHit] + src[srcMiss] + src[srcDedup]
	engine := func(name string) (selfNS, costed float64, c map[string]float64) {
		return lt.total[name], lt.counts[name]["plans_costed"], lt.counts[name]
	}
	dpNS, dpCosted, dpC := engine("dp.optimize")
	coreNS, coreCosted, coreC := engine("core.optimize")
	idpNS, idpCosted, _ := engine("idp.optimize")
	_, greedyCosted, _ := engine("greedy.optimize")
	calls := func(name string) float64 { return float64(len(lt.self[name])) }
	closure := ratio(sum(lt.stages), sum(rp.handlerNS))
	unattributed := make([]float64, rp.requests)
	for i := range unattributed {
		unattributed[i] = (rp.handlerNS[i] - lt.stages[i]) / 1e3
	}
	used := m.after.minus(m.before)

	values := map[string]float64{
		"server.handler_us":         median(rp.handlerNS) / 1e3,
		"server.codec_us":           lt.medianOf(1e3, "server.decode") + lt.medianOf(1e3, "server.encode"),
		"server.unattributed_us":    median(unattributed),
		"server.reported_ms_p50":    median(srvMS),
		"server.shed_share":         shed / n,
		"server.timeout_share":      timeouts / n,
		"server.error5xx_share":     err5xx / n,
		"server.wrong_answer_share": wrong / n,
		"http.transport_us":         median(transport),

		"parse.sql_us":                lt.medianOf(1e3, "parse.sql"),
		"query.build_us":              lt.medianOf(1e3, "query.build"),
		"query.shape_us":              lt.medianOf(1e3, "query.shape"),
		"query.canon_us":              lt.medianOf(1e3, "query.canon"),
		"query.fingerprint_us":        lt.medianOf(1e3, "query.fingerprint"),
		"query.canon_truncated_share": float64(lv.pool.canonSplit) / float64(len(lv.pool.entries)),

		"plancache.lookup_us":        lt.medianOf(1e3, "plancache.lookup"),
		"plancache.fill_us":          lt.medianOf(1e3, "plancache.fill"),
		"plancache.hit_share":        ratio(src[srcHit], cached),
		"plancache.dedup_share":      ratio(src[srcDedup], cached),
		"plancache.evictions_per_1k": ratio(float64(cacheCounts.Evictions)*1000, float64(cacheCounts.Hits+cacheCounts.Misses+cacheCounts.Dedups)),
		"plancache.entries":          float64(cacheCounts.Entries),

		"route.decide_us":             lt.medianOf(1e3, "route.decide"),
		"route.share_greedy":          tech[techGreedy] / n,
		"route.share_idp2":            tech[techIDP2] / n,
		"route.share_sdp":             tech[techSDP] / n,
		"route.demoted_share":         reason[reasonDemoted] / n,
		"route.regret_promoted_share": reason[reasonRegretPromoted] / n,

		"dp.optimize_ms":                    lt.medianOf(1e6, "dp.optimize"),
		"dp.ns_per_plan_costed":             ratio(dpNS, dpCosted),
		"dp.allocs_per_plan_costed":         ratio(dpC["heap_objects"], dpCosted),
		"dp.plans_costed_per_request":       ratio(dpCosted, calls("dp.optimize")),
		"dp.paths_retained_per_plan_costed": ratio(dpC["paths_retained"], dpCosted),
		"dp.pairs_connected_per_considered": ratio(dpC["pairs_connected"], dpC["pairs_considered"]),
		"dp.peak_sim_mb_max":                dpC["peak_sim_bytes"] / (1 << 20),

		"core.optimize_ms":                    lt.medianOf(1e6, "core.optimize"),
		"core.ns_per_plan_costed":             ratio(coreNS, coreCosted),
		"core.allocs_per_plan_costed":         ratio(coreC["heap_objects"], coreCosted),
		"core.plans_costed_per_request":       ratio(coreCosted, calls("core.optimize")),
		"core.paths_retained_per_plan_costed": ratio(coreC["paths_retained"], coreCosted),
		"core.classes_alive_per_created":      ratio(coreC["classes_alive"], coreC["classes_created"]),

		"idp.optimize_ms":                 lt.medianOf(1e6, "idp.optimize"),
		"idp.ns_per_plan_costed":          ratio(idpNS, idpCosted),
		"idp.plans_costed_per_request":    ratio(idpCosted, calls("idp.optimize")),
		"greedy.optimize_us":              lt.medianOf(1e3, "greedy.optimize"),
		"greedy.plans_costed_per_request": ratio(greedyCosted, calls("greedy.optimize")),
		"pardp.speedup_workers2":          speedup,

		"plan.remap_us":      lt.medianOf(1e3, "plan.remap"),
		"plan.render_us":     lt.medianOf(1e3, "plan.render"),
		"obs.overhead_ratio": ratio(sum(rp.handlerNS), sum(rp.bareNS)),

		"regret.sampled":   float64(regretCounts.Sampled),
		"regret.completed": float64(regretCounts.Completed),
		"regret.dropped":   float64(regretCounts.Dropped),

		"runtime.gc_cpu_share": ratio(used.gcCPU, used.cpu.Seconds()),
		"runtime.gc_cycles":    float64(used.gcCycles),
		"runtime.heap_peak_mb": float64(ms.HeapSys) / (1 << 20),

		"bench.generator_lag_p99_ms": lagMS(m.res, 99),
		"bench.trace_closure_ratio":  closure,
		"bench.trace_overhead_ratio": ratio(sum(rp.tracedNS), sum(rp.stagedNS)),
		"bench.requests_measured":    n,
	}
	if cfg.scale == 1 && (closure < closureBounds[0] || closure > closureBounds[1]) {
		return nil, fmt.Errorf("%w: the stages sum to %.3f of the handler's time, outside [%g, %g]: the per-layer numbers do not account for the handler\n%s",
			errInvalid, closure, closureBounds[0], closureBounds[1], stageTable(lt, rp))
	}
	res := newResult(m.res)
	for _, s := range perLayer {
		res.Metrics[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}
	return res, nil
}

// stageTable renders each span name's share of the handler's time, for the
// message of a failed closure check.
func stageTable(lt *layerTimes, rp *replay) string {
	var b strings.Builder
	for _, n := range sortedKeys(lt.total) {
		fmt.Fprintf(&b, "  %-22s %6.3f\n", n, lt.total[n]/sum(rp.handlerNS))
	}
	return b.String()
}
