// Package regret measures served plan quality online: a sampling shadow
// optimizer that re-optimizes a fraction of served queries in the
// background with a reference technique (DP when feasible by relation
// count, full SDP otherwise), computes the cost ratio of the served plan
// against the reference, and aggregates the paper's quality metrics —
// ρ (geometric mean), worst-case W, and the Ideal/Good/Acceptable/Bad
// bucket distribution — over rolling windows keyed by (technique,
// topology, relation-count band).
//
// The design constraint mirrors the plan cache's detached-fill rule:
// shadow work may never degrade serving. Observe is a few atomic
// operations on the non-sampled path; sampled queries go to an off-path
// lane (internal/obs/lane: dedup, bounded queue, worker pool, panic
// containment), and shadow optimizations run under their own context —
// detached from any request deadline.
package regret

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/lane"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/tech"
)

// OptimizeFunc runs one optimization by technique name. It has tech.Run's
// signature: the server passes tech.Run, and tests inject fakes.
type OptimizeFunc func(ctx context.Context, technique string, q *query.Query, o tech.Options) (*plan.Plan, dp.Stats, error)

// Options configures a Shadow.
type Options struct {
	// Optimize runs the shadow re-optimizations. Required.
	Optimize OptimizeFunc
	// Obs receives regret metrics (ratio histograms, sample/drop counters).
	// Optional.
	Obs *obs.Observer
	// Flight, when set, receives the worst-regret shadow traces: a shadow
	// run whose ratio reaches PinRatio is pinned into the recorder's
	// notable ring with both costs and the serving trace ID attached.
	Flight *span.Recorder
	// OnSample, when set, receives every measured ratio keyed the same way
	// as the rolling windows — the feedback hook the technique router uses
	// to demote a route whose ρ degrades. Called from shadow workers, never
	// from the serving path; implementations must be concurrency-safe and
	// fast.
	OnSample func(tech, shape, band string, ratio float64)

	// SampleRate is the fraction of computed serves (miss, dedup,
	// uncached) that are shadowed, in [0, 1]. Default 0.05.
	SampleRate float64
	// HitSampleRate is the fraction of cache-hit serves shadowed — lower
	// by default (0.01) because hits re-serve already-measured plans; a
	// nonzero rate still catches staleness after catalog drift.
	HitSampleRate float64
	// MaxDPRels selects the reference: queries with at most this many
	// relations are re-optimized with exhaustive DP, larger ones with full
	// SDP (the paper's fallback reference when DP is infeasible).
	// Default 12.
	MaxDPRels int
	// Workers is the shadow pool size (default 1). Shadow optimizations
	// run sequentially within each worker with no enumeration parallelism,
	// keeping their CPU appetite bounded and predictable.
	Workers int
	// QueueSize bounds jobs waiting for a shadow worker (default 64);
	// overflow is dropped and counted, never queued unboundedly.
	QueueSize int
	// Budget is the memory-feasibility budget per shadow optimization
	// (default the paper's 1 GB).
	Budget int64
	// DedupFor suppresses re-shadowing of one canonical fingerprint ×
	// catalog version within this interval (default 1m), so a hot query
	// is measured once per window, not once per serve. Negative disables
	// deduplication (benchmarks and tests).
	DedupFor time.Duration
	// Window is the per-key rolling window size in samples (default 512).
	Window int
	// TopN is how many worst-regret exemplars to retain (default 8).
	TopN int
	// PinRatio pins a shadow trace into Flight's notable ring when the
	// measured ratio reaches it (default 2 — the paper's Good/Acceptable
	// boundary). Set to +Inf to disable pinning.
	PinRatio float64
}

// shadowTimeout caps each shadow optimization's wall time.
const shadowTimeout = 30 * time.Second

func (o Options) withDefaults() Options {
	if o.SampleRate < 0 {
		o.SampleRate = 0
	}
	if o.SampleRate > 1 {
		o.SampleRate = 1
	}
	if o.HitSampleRate == 0 {
		o.HitSampleRate = 0.01
		if o.SampleRate < o.HitSampleRate {
			o.HitSampleRate = o.SampleRate
		}
	}
	if o.HitSampleRate < 0 {
		o.HitSampleRate = 0
	}
	if o.HitSampleRate > 1 {
		o.HitSampleRate = 1
	}
	if o.MaxDPRels <= 0 {
		o.MaxDPRels = 12
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.Budget <= 0 {
		o.Budget = memo.DefaultBudget
	}
	if o.DedupFor == 0 {
		o.DedupFor = time.Minute
	}
	if o.Window <= 0 {
		o.Window = 512
	}
	if o.TopN <= 0 {
		o.TopN = 8
	}
	if o.PinRatio == 0 {
		o.PinRatio = 2
	}
	return o
}

// Sample is one served optimization offered to the shadow layer.
type Sample struct {
	// Query is the served query (any frame — cost is frame-invariant).
	Query *query.Query
	// Technique is the technique that produced the served plan.
	Technique string
	// PlanCost and PlanShape are the served plan's cost and its rendered
	// join shape (plan.Shape over Query's relation names) — all the shadow
	// reads of it, and what the serve already computed for its response.
	PlanCost  float64
	PlanShape string
	// Source is the plan-cache source label ("hit", "dedup", "miss",
	// "uncached"); "hit" selects HitSampleRate.
	Source string
	// TraceID links the serve back to its flight-recorder trace.
	TraceID string
	// RouteReason records why the serving layer ran Technique ("explicit",
	// or one of the router's auto:* reasons), so bad ρ is attributable to
	// a routing decision rather than a technique in the abstract.
	RouteReason string
}

// Shadow is the sampling shadow optimizer. Construct with New; it is safe
// for concurrent use, and all exported methods are no-ops on a nil
// receiver, so an unconfigured server carries a nil *Shadow at zero cost.
type Shadow struct {
	opts       Options
	catVersion string

	compGate lane.Gate // computed serves (miss/dedup/uncached)
	hitGate  lane.Gate // cache hits
	lane     *lane.Lane[*job]

	aggMu     sync.Mutex // guards windows + exemplars
	windows   map[Key]*window
	exemplars []Exemplar

	observed atomic.Int64
	sampled  atomic.Int64
	pinned   atomic.Int64
}

// job carries everything a worker needs; the serving request is long gone
// by the time it runs.
type job struct {
	q           *query.Query
	tech        string
	ref         string
	source      string
	routeReason string
	traceID     string
	servedCost  float64
	servedShape string
	shape       string
	band        string
	rels        int

	// root is the job's regret.shadow span, opened by runJob; fail closes
	// it with the error.
	root *span.Span
}

// New validates opts and builds a shadow optimizer with its worker pool
// running. catalogVersion is the catalog half of the dedup key — the
// fingerprint of the one catalog the caller serves. Callers must Close it
// to stop the workers.
func New(opts Options, catalogVersion string) (*Shadow, error) {
	if opts.Optimize == nil {
		return nil, errors.New("regret: Options.Optimize is required")
	}
	opts = opts.withDefaults()
	s := &Shadow{
		opts:       opts,
		catVersion: catalogVersion,
		windows:    map[Key]*window{},
	}
	s.compGate.SetRate(opts.SampleRate)
	s.hitGate.SetRate(opts.HitSampleRate)
	s.lane = lane.New(lane.Options{Workers: opts.Workers, QueueSize: opts.QueueSize, DedupFor: opts.DedupFor}, s.runJob, s.fail)
	if opts.Obs != nil {
		opts.Obs.Registry.GaugeFunc(obs.MRegretQueueDepth, func() int64 { return int64(s.lane.Len()) })
	}
	return s, nil
}

// Band buckets a relation count into the dump's relation-count bands.
func Band(n int) string {
	switch {
	case n <= 4:
		return "1-4"
	case n <= 8:
		return "5-8"
	case n <= 12:
		return "9-12"
	case n <= 16:
		return "13-16"
	case n <= 24:
		return "17-24"
	default:
		return "25+"
	}
}

// Reference returns the reference technique the shadow would use for an
// n-relation query: exhaustive DP while feasible, full SDP beyond.
func (s *Shadow) Reference(n int) string {
	if s != nil && n <= s.opts.MaxDPRels {
		return tech.DP
	}
	return tech.SDP
}

// Observe offers one successful serve to the shadow layer. The fast path —
// not sampled — is two atomic adds; a sampled serve is offered to the lane,
// which deduplicates it by fingerprint × catalog version and enqueues it
// without blocking (dropped, and counted, when the queue is full). Nil-safe;
// never blocks serving.
func (s *Shadow) Observe(sm Sample) {
	if s == nil || sm.Query == nil {
		return
	}
	s.observed.Add(1)
	g := &s.compGate
	if sm.Source == "hit" {
		g = &s.hitGate
	}
	if !g.Sample() {
		return
	}
	s.sampled.Add(1)

	n := sm.Query.NumRelations()
	j := &job{
		q:           sm.Query,
		tech:        sm.Technique,
		ref:         s.Reference(n),
		source:      sm.Source,
		routeReason: sm.RouteReason,
		traceID:     sm.TraceID,
		servedCost:  sm.PlanCost,
		servedShape: sm.PlanShape,
		shape:       sm.Query.Shape(),
		band:        Band(n),
		rels:        n,
	}
	switch s.lane.Offer(sm.Query.Fingerprint(), s.catVersion, j) {
	case lane.Deduped:
		s.opts.Obs.Counter(obs.MRegretDeduped).Add(1)
	case lane.Dropped:
		s.opts.Obs.Counter(obs.MRegretDropped).Add(1)
	}
}

// runJob executes one shadow re-optimization, entirely detached from the
// serving request that sampled it: fresh context, shadow timeout, shadow
// budget, sequential enumeration, and a nil engine observer so shadow load
// never pollutes the serving-path optimization metrics. An error (or a
// panic, which the lane turns into one) reaches fail.
func (s *Shadow) runJob(j *job) error {
	root := span.New("regret.shadow")
	j.root = root
	root.SetAttr("tech", j.tech)
	root.SetAttr("ref", j.ref)
	root.SetAttr("shape", j.shape)
	root.SetAttr("rels", j.rels)
	root.SetAttr("source", j.source)
	if j.routeReason != "" {
		root.SetAttr("route_reason", j.routeReason)
	}
	root.SetAttr("served_trace", j.traceID)

	ctx, cancel := context.WithTimeout(context.Background(), shadowTimeout)
	defer cancel()
	ctx = span.NewContext(ctx, root)

	started := time.Now()
	refPlan, _, err := s.opts.Optimize(ctx, j.ref, j.q, tech.Options{Budget: s.opts.Budget})
	dur := time.Since(started)
	s.opts.Obs.Histogram(obs.MRegretShadowSeconds, obs.SecondsBuckets).Observe(dur.Seconds())
	if err == nil && (refPlan == nil || refPlan.Cost <= 0) {
		err = fmt.Errorf("regret: reference %s produced invalid cost", j.ref)
	}
	if err != nil {
		return err
	}

	ratio := j.servedCost / refPlan.Cost
	if !(ratio > 0) || math.IsInf(ratio, 0) {
		return fmt.Errorf("regret: invalid ratio %g", ratio)
	}
	root.SetAttr("ratio", ratio)
	root.SetAttr("served_cost", j.servedCost)
	root.SetAttr("ref_cost", refPlan.Cost)

	refShape := refPlan.Shape(func(i int) string { return j.q.Relation(i).Name })
	ex := Exemplar{
		Time:        started,
		Tech:        j.tech,
		Ref:         j.ref,
		Shape:       j.shape,
		Band:        j.band,
		Rels:        j.rels,
		Source:      j.source,
		RouteReason: j.routeReason,
		Ratio:       ratio,
		ServedCost:  j.servedCost,
		RefCost:     refPlan.Cost,
		ServedShape: j.servedShape,
		RefShape:    refShape,
		TraceID:     j.traceID,
	}

	if s.opts.Flight != nil && ratio >= s.opts.PinRatio {
		ex.ShadowTraceID = root.TraceID()
		s.opts.Flight.Pin(root, 200)
		s.pinned.Add(1)
	} else {
		root.Finish()
	}

	s.record(j, ratio, ex)

	if s.opts.OnSample != nil {
		s.opts.OnSample(j.tech, j.shape, j.band, ratio)
	}

	if s.opts.Obs != nil {
		s.opts.Obs.Histogram(obs.Label(obs.MRegretRatio, "tech", j.tech, "shape", j.shape), obs.RatioBuckets).
			ObserveExemplar(ratio, j.traceID)
		s.opts.Obs.Counter(obs.Label(obs.MRegretSamples, "tech", j.tech)).Add(1)
	}
	return nil
}

// fail accounts one failed shadow job: the error metric, and the error on
// its span.
func (s *Shadow) fail(j *job, err error) {
	s.opts.Obs.Counter(obs.MRegretShadowErrors).Add(1)
	j.root.FinishErr(err)
}

// record folds one measured ratio into the per-key rolling window and the
// top-N exemplar list.
func (s *Shadow) record(j *job, ratio float64, ex Exemplar) {
	key := Key{Tech: j.tech, Shape: j.shape, Band: j.band}
	s.aggMu.Lock()
	w := s.windows[key]
	if w == nil {
		w = &window{ratios: make([]float64, 0, s.opts.Window)}
		s.windows[key] = w
	}
	w.push(ratio, s.opts.Window)

	// Exemplars: keep the TopN worst ratios, sorted worst-first.
	i := len(s.exemplars)
	for i > 0 && s.exemplars[i-1].Ratio < ex.Ratio {
		i--
	}
	if i < s.opts.TopN {
		s.exemplars = append(s.exemplars, Exemplar{})
		copy(s.exemplars[i+1:], s.exemplars[i:])
		s.exemplars[i] = ex
		if len(s.exemplars) > s.opts.TopN {
			s.exemplars = s.exemplars[:s.opts.TopN]
		}
	}
	s.aggMu.Unlock()
}

// window is one key's rolling ratio ring plus its lifetime sample count.
type window struct {
	ratios []float64
	head   int
	total  int64
}

func (w *window) push(r float64, capacity int) {
	w.total++
	if len(w.ratios) < capacity {
		w.ratios = append(w.ratios, r)
		return
	}
	w.ratios[w.head] = r
	w.head = (w.head + 1) % capacity
}

// Drain blocks until every enqueued shadow job has completed or ctx
// expires — the determinism hook for benchmarks and smoke tests. Serving
// code never calls it.
func (s *Shadow) Drain(ctx context.Context) error {
	if s == nil {
		return nil
	}
	return s.lane.Drain(ctx)
}

// Close stops accepting samples, discards queued shadow jobs, and waits for
// the in-flight ones to finish. Idempotent and nil-safe.
func (s *Shadow) Close() {
	if s != nil {
		s.lane.Close()
	}
}
