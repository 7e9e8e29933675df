// Optimizer-as-a-service surface: canonical query fingerprinting, the plan
// cache, and the HTTP serving layer. See internal/plancache and
// internal/server for the mechanics; DESIGN.md ("Plan cache and serving")
// for the rationale.

package sdpopt

import (
	"context"
	"io"

	"sdpopt/internal/catalog"
	"sdpopt/internal/dp"
	"sdpopt/internal/feedback"
	"sdpopt/internal/obs/regret"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plancache"
	"sdpopt/internal/route"
	"sdpopt/internal/server"
	"sdpopt/internal/tech"
)

// Plan cache and serving types.
type (
	// PlanCache is a sharded LRU of optimization results keyed by
	// canonical query fingerprint × technique × catalog version, with
	// singleflight deduplication of concurrent misses.
	PlanCache = plancache.Cache
	// PlanCacheOptions configures a PlanCache.
	PlanCacheOptions = plancache.Options
	// PlanCacheKey identifies one cache entry.
	PlanCacheKey = plancache.Key
	// PlanCacheCounts is a snapshot of the cache counters.
	PlanCacheCounts = plancache.Counts
	// Server is the HTTP serving layer: POST /optimize, GET /healthz,
	// GET /catalog, plus the observability surface when configured.
	Server = server.Server
	// ServerOptions configures a Server (catalog, cache, admission
	// control, default budget and timeout).
	ServerOptions = server.Options
	// FlightRecorder retains recent and slow/error request traces in fixed
	// rings; the server exposes one at /debug/requests and
	// /debug/flight.json.
	FlightRecorder = span.Recorder
	// FlightRecorderOptions sizes a flight recorder (ring capacities and
	// the slow-trace pinning threshold).
	FlightRecorderOptions = span.RecorderOptions
	// FlightDump is the /debug/flight.json document: recorder config,
	// counts, and active / notable / recent traces as span trees.
	FlightDump = span.FlightDump
	// FlightTrace is one trace within a FlightDump.
	FlightTrace = span.TraceJSON
	// TraceSummary aggregates span trees: effort per technique, time per
	// level, pruning efficacy per skyline criterion.
	TraceSummary = span.TraceSummary
	// RegretOptions configures the server's shadow regret layer: sampling
	// rates, the reference-technique DP cutover, worker pool and queue
	// sizes, dedup interval, window sizes, and the flight-recorder pin
	// threshold. Set ServerOptions.Regret to enable /debug/regret.
	RegretOptions = regret.Options
	// RegretShadow is the sampling shadow optimizer behind /debug/regret;
	// the server exposes its own via Server.Regret.
	RegretShadow = regret.Shadow
	// RegretDump is the /debug/regret.json document: shadow config,
	// counters, per-key quality windows, and worst-regret exemplars.
	RegretDump = regret.Dump
	// FeedbackOptions configures the server's cardinality feedback ledger:
	// exec-sampling rate and eligibility bounds, ledger window sizing, and
	// the JSONL corpus path. Set ServerOptions.Feedback to enable
	// /debug/cardinality and staleness-aware routing.
	FeedbackOptions = server.FeedbackOptions
	// FeedbackLedgerOptions sizes the ledger's rolling windows and the
	// staleness threshold.
	FeedbackLedgerOptions = feedback.LedgerOptions
	// FeedbackLedger aggregates estimate-vs-actual observations per catalog
	// object; the server exposes its own via Server.FeedbackLedger.
	FeedbackLedger = feedback.Ledger
	// FeedbackObservation is one per-plan-node (estimate, actual) pair
	// attributed to a catalog object — the JSONL corpus record.
	FeedbackObservation = feedback.Observation
	// FeedbackDump is the /debug/cardinality.json document: ledger config,
	// sampler counters, and per-object q-error/staleness summaries.
	FeedbackDump = feedback.Dump
	// FeedbackProfile is the per-object geomean est/actual error factors
	// distilled from a corpus — RobustConfig.Empirical replays it.
	FeedbackProfile = feedback.ErrorProfile
	// RouteOptions tunes the server's SLO-aware technique router: the
	// fast-path and heavy-tail relation thresholds, the deadline safety
	// factor, and the latency/regret EWMA smoothing (see internal/route
	// and DESIGN.md "SLO-aware routing"). Set ServerOptions.Route; the
	// zero value selects the defaults.
	RouteOptions = route.Options
	// RouteDecision is one routing outcome: the chosen technique, the
	// reason, and the latency prediction behind it.
	RouteDecision = route.Decision
)

// ErrCanceled reports an optimization aborted by context cancellation or
// deadline — the serving-path abort, distinct from ErrBudget (the paper's
// memory-feasibility abort). Test with errors.Is; the context cause
// (e.g. context.DeadlineExceeded) is wrapped and also matchable.
var ErrCanceled = dp.ErrCanceled

// NewPlanCache builds a plan cache (zero options: 1024 entries, 16
// shards, no telemetry).
func NewPlanCache(opts PlanCacheOptions) *PlanCache { return plancache.New(opts) }

// NewServer builds the optimizer service; start it with Server.Start or
// mount Server.Handler in an existing mux.
func NewServer(opts ServerOptions) (*Server, error) { return server.New(opts) }

// Techniques lists the served techniques, strongest first: "dp", "sdp",
// "idp2" and "greedy". OptimizeCached and the server's /optimize endpoint
// accept exactly these ("" selects "sdp"). The comparison-only engines
// (IDP1, left-deep DP, II, SA, GEQO) have their own Optimize* functions.
func Techniques() []string { return tech.Names() }

// ReadFlightDump parses a /debug/flight.json document, e.g. one saved with
// curl while debugging a slow request. Render each trace with
// FlightTrace.Render, or feed dump.Traces() to SummarizeTrace for the
// per-technique, per-level and per-partition tables (`sdplab inspect`
// wraps both).
func ReadFlightDump(r io.Reader) (*FlightDump, error) { return span.ReadDump(r) }

// TraceRun runs fn with a context carrying a fresh root span named name and
// returns the finished trace: the span tree of every optimization fn ran
// with that context as its options' Ctx — one "level" span per enumeration
// level, and SDP's "sdp.level" and "sdp.partition" spans. Walk
// FlightTrace.Root, or aggregate with SummarizeTrace.
func TraceRun(ctx context.Context, name string, fn func(ctx context.Context)) FlightTrace {
	root := span.New(name)
	fn(span.NewContext(ctx, root))
	root.Finish()
	root.Trace().Finish(0)
	return root.Trace().Snapshot()
}

// SummarizeTrace aggregates span trees — a FlightDump's Traces, or the
// results of TraceRun; render the result with TraceSummary.Render.
func SummarizeTrace(traces []FlightTrace) *TraceSummary { return span.Summarize(traces) }

// ReadRegretDump parses a /debug/regret.json document; render it with
// RegretDump.Render (`sdplab regret` wraps both).
func ReadRegretDump(r io.Reader) (*RegretDump, error) { return regret.ReadDump(r) }

// ReadFeedbackDump parses a /debug/cardinality.json document; render it
// with FeedbackDump.Render (`sdplab feedback` wraps both).
func ReadFeedbackDump(r io.Reader) (*FeedbackDump, error) { return feedback.ReadDump(r) }

// ReadFeedbackCorpus decodes a JSONL observation corpus written by a
// feedback-enabled server (-feedback-log), skipping malformed lines — a
// warning per skipped line goes to warn (discarded when nil) — and returns
// how many were skipped. Corpora cut off mid-line by a crash stay readable.
func ReadFeedbackCorpus(r io.Reader, warn io.Writer) ([]FeedbackObservation, int, error) {
	return feedback.ReadCorpusLenient(r, warn)
}

// BuildFeedbackProfile distills a corpus into per-object geomean est/actual
// error factors; set RobustConfig.Empirical to replay them in place of the
// synthetic error bands.
func BuildFeedbackProfile(observations []FeedbackObservation) *FeedbackProfile {
	return feedback.BuildProfile(observations)
}

// RequestTechniques lists the values the server's /optimize "technique"
// field accepts: "auto" (route per request) plus every Techniques entry.
func RequestTechniques() []string { return server.RequestTechniques() }

// CanonicalQuery returns q's canonical encoding: a stable string
// normalizing relation order, predicate order and orientation, implied
// predicates, filter constants, and ORDER BY targets, so semantically
// identical queries encode identically.
func CanonicalQuery(q *Query) string { return q.Canonical() }

// QueryFingerprint digests the canonical encoding into a fixed-size hex
// key — the plan cache's query component.
func QueryFingerprint(q *Query) string { return q.Fingerprint() }

// CatalogFingerprint digests the catalog statistics — the plan cache's
// version component. Any statistics change yields a new version, silently
// invalidating all cached plans built against the old one.
func CatalogFingerprint(c *Catalog) string { return c.Fingerprint() }

// ReadCatalogJSON loads a catalog written by Catalog.WriteJSON, validating
// the statistics' basic invariants.
func ReadCatalogJSON(r io.Reader) (*Catalog, error) { return catalog.ReadJSON(r) }

// OptimizeCached optimizes q with one of the served techniques (see
// Techniques; "" selects "sdp") through the cache: a repeated fingerprint
// is served without re-enumeration, and concurrent misses on one
// fingerprint run exactly one optimization. The boolean reports whether the result came from cache.
// Budget 0 selects DefaultBudget; ctx cancellation aborts an actual
// optimization with ErrCanceled but never invalidates cached entries.
//
// Plans are cached in the query's canonical frame and relabeled into each
// caller's query-local relation numbering, so a hit served to an
// equivalent-but-differently-ordered spelling still references the right
// relations. Two caveats relative to the HTTP server's stricter serving
// semantics: ctx and budget belong to whichever call runs the compute, so
// coalesced and later callers share that call's outcome — use one budget
// per cache (the budget is not part of the key) and bypass the cache for
// feasibility probes under unusual budgets.
func OptimizeCached(ctx context.Context, pc *PlanCache, q *Query, technique string, budget int64) (*Plan, Stats, bool, error) {
	if budget == 0 {
		budget = DefaultBudget
	}
	if technique == "" {
		technique = tech.SDP
	}
	cn := q.Canon()
	key := PlanCacheKey{
		Fingerprint:    q.Fingerprint(),
		Technique:      technique,
		CatalogVersion: q.Cat.Fingerprint(),
	}
	p, st, src, err := pc.Do(key, func() (*Plan, Stats, error) {
		p, st, err := tech.Run(ctx, technique, q, tech.Options{Budget: budget})
		if err != nil {
			return nil, st, err
		}
		return p.Remap(cn.RelTo, cn.EqTo), st, nil
	})
	if err != nil {
		return nil, st, src != plancache.Miss, err
	}
	return p.Remap(cn.RelFrom, cn.EqFrom), st, src != plancache.Miss, nil
}
