package feedback

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"sdpopt/internal/exec"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/lane"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// SamplerOptions configures the opt-in exec-sampling path: a fraction of
// served plans for small-enough queries is executed over synthetic data off
// the measured path, feeding the ledger and corpus.
type SamplerOptions struct {
	// Ledger receives the observations. Required.
	Ledger *Ledger
	// Corpus, when set, additionally persists every observation as JSONL.
	Corpus *CorpusWriter
	// Obs receives sampler metrics. Optional.
	Obs *obs.Observer

	// Rate is the fraction of eligible serves executed, in [0, 1].
	// Default 0 (disabled) — execution, even of scaled-down relations, is
	// orders of magnitude more work than optimization, so sampling is
	// strictly opt-in.
	Rate float64
	// MaxRels caps the relation count of a sampled query (default 8).
	MaxRels int
	// MaxRows caps each base relation's cardinality (default 2000);
	// queries touching bigger relations are skipped — the executor is a
	// validation harness, not a data warehouse.
	MaxRows int
}

// The exec lane: one worker, since an execution costs orders of magnitude
// more CPU than an optimization; 32 queued jobs before dropping; one
// execution per fingerprint × catalog version per minute. dataSeed drives
// synthetic data generation, so every sampled execution sees the same
// deterministic database.
var samplerLane = lane.Options{Workers: 1, QueueSize: 32, DedupFor: time.Minute}

const dataSeed = 1

func (o SamplerOptions) withDefaults() SamplerOptions {
	if o.Rate < 0 {
		o.Rate = 0
	}
	if o.Rate > 1 {
		o.Rate = 1
	}
	if o.MaxRels <= 0 {
		o.MaxRels = 8
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 2000
	}
	return o
}

// Sample is one served optimization offered to the sampler.
type Sample struct {
	// Query is the served query.
	Query *query.Query
	// Plan is the served plan as the server holds it: in Frame, the
	// query's canonical frame, when the plan came from the plan cache, or
	// in Query's own frame when Frame is nil. Only a sampled job relabels
	// it, off the serving path.
	Plan  *plan.Plan
	Frame *query.Canon
	// Technique produced the plan.
	Technique string
	// TraceID links observations back to the serving trace.
	TraceID string
}

// Sampler is the exec-sampling worker pool. Construct with NewSampler; all
// exported methods are nil-safe, so an unconfigured server carries a nil
// *Sampler at zero cost. Like the regret shadow, sampled work runs on an
// off-path lane (internal/obs/lane) and may never degrade serving: Observe
// is a few atomics plus cheap eligibility checks.
type Sampler struct {
	opts       SamplerOptions
	catVersion string

	gate lane.Gate
	lane *lane.Lane[sampleJob]

	observed atomic.Int64
	sampled  atomic.Int64
	skipped  atomic.Int64
}

type sampleJob struct {
	q       *query.Query
	p       *plan.Plan
	frame   *query.Canon
	tech    string
	traceID string
}

// NewSampler validates opts and starts the worker pool. catalogVersion is
// the catalog half of the dedup key — the fingerprint of the one catalog the
// caller serves. Callers must Close it to stop the workers.
func NewSampler(opts SamplerOptions, catalogVersion string) (*Sampler, error) {
	if opts.Ledger == nil {
		return nil, errors.New("feedback: SamplerOptions.Ledger is required")
	}
	opts = opts.withDefaults()
	s := &Sampler{opts: opts, catVersion: catalogVersion}
	s.gate.SetRate(opts.Rate)
	s.lane = lane.New(samplerLane, s.runJob, s.fail)
	if opts.Obs != nil {
		opts.Obs.Registry.GaugeFunc(obs.MFeedbackQueueDepth, func() int64 { return int64(s.lane.Len()) })
	}
	return s, nil
}

// Observe offers one successful serve to the sampler. The fast path — not
// sampled — is one atomic add plus the rate gate; a sampled serve is checked
// for eligibility and offered to the lane, which deduplicates it by
// fingerprint × catalog version and enqueues it without blocking. Nil-safe;
// never blocks serving.
func (s *Sampler) Observe(sm Sample) {
	if s == nil || sm.Query == nil || sm.Plan == nil {
		return
	}
	s.observed.Add(1)
	if !s.gate.Sample() {
		return
	}
	if n := sm.Query.NumRelations(); n > s.opts.MaxRels {
		s.skipped.Add(1)
		s.opts.Obs.Counter(obs.Label(obs.MFeedbackSkipped, "cause", "rels")).Add(1)
		return
	}
	for i := 0; i < sm.Query.NumRelations(); i++ {
		if sm.Query.Relation(i).Rows > float64(s.opts.MaxRows) {
			s.skipped.Add(1)
			s.opts.Obs.Counter(obs.Label(obs.MFeedbackSkipped, "cause", "rows")).Add(1)
			return
		}
	}
	s.sampled.Add(1)
	s.opts.Obs.Counter(obs.MFeedbackSampled).Add(1)

	j := sampleJob{q: sm.Query, p: sm.Plan, frame: sm.Frame, tech: sm.Technique, traceID: sm.TraceID}
	switch s.lane.Offer(sm.Query.Fingerprint(), s.catVersion, j) {
	case lane.Deduped:
		s.opts.Obs.Counter(obs.Label(obs.MFeedbackSkipped, "cause", "dedup")).Add(1)
	case lane.Dropped:
		s.opts.Obs.Counter(obs.Label(obs.MFeedbackSkipped, "cause", "queue")).Add(1)
	}
}

// runJob executes one sampled plan over synthetic data and feeds the ledger
// and corpus. Detached from the serving request entirely.
func (s *Sampler) runJob(j sampleJob) error {
	started := time.Now()
	p := j.p
	if j.frame != nil {
		p = p.Remap(j.frame.RelFrom, j.frame.EqFrom)
	}
	db, err := exec.Generate(j.q, dataSeed, s.opts.MaxRows)
	if err == nil {
		var actuals map[*plan.Plan]int
		_, actuals, err = db.RunActuals(p)
		if err == nil {
			observations := PlanObservations(j.q, p, actuals, j.tech, j.traceID)
			s.opts.Ledger.Record(observations...)
			s.opts.Corpus.Append(observations...)
		}
	}
	s.opts.Obs.Histogram(obs.MFeedbackExecSeconds, obs.SecondsBuckets).Observe(time.Since(started).Seconds())
	return err
}

// fail accounts one failed (or panicked) sampled execution.
func (s *Sampler) fail(sampleJob, error) {
	s.opts.Obs.Counter(obs.MFeedbackExecErrors).Add(1)
}

// Drain blocks until every enqueued job has completed or ctx expires — the
// determinism hook for benchmarks and smoke tests. Nil-safe.
func (s *Sampler) Drain(ctx context.Context) error {
	if s == nil {
		return nil
	}
	return s.lane.Drain(ctx)
}

// Close stops accepting samples, discards queued jobs, waits for in-flight
// ones, and flushes the corpus. Idempotent and nil-safe.
func (s *Sampler) Close() {
	if s == nil {
		return
	}
	s.lane.Close()
	// The corpus owner closes it afterwards and reports the write error
	// there; flushing an already-flushed corpus is a no-op.
	_ = s.opts.Corpus.Flush()
}
