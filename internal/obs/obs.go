// Package obs is the optimizer's metrics layer: an atomic-counter metrics
// Registry (counters, gauges and histograms) that aggregates across runs.
// There is one histogram type; its bucket bounds are its only parameter —
// SecondsBuckets for durations, observed in seconds, and RatioBuckets for
// cost ratios and q-errors, whose bounds include the paper's quality
// thresholds. Its per-request counterpart is package obs/span, whose span
// trees carry the same numbers for one request or one run.
//
// Every number the paper's tables report — plans costed, memo memory,
// optimization time, pruning counts — flows through these two, so DP, IDP
// and SDP are measured uniformly. The design constraint is that
// observability must cost nothing when off: all types are nil-safe, and the
// disabled path through an Observer or metric handle is a single nil-check.
// Engine layers resolve their metric handles once per run, never per pair.
//
// The package depends only on the standard library and is imported by every
// engine layer (memo, dp, core, idp, harness) and the CLIs.
package obs

import "sync/atomic"

// Observer carries a metrics registry. Engine options carry an optional
// *Observer; a nil observer (the default) disables all metrics.
type Observer struct {
	Registry *Registry
}

// New returns an observer over a fresh registry.
func New() *Observer {
	return &Observer{Registry: NewRegistry()}
}

// Counter resolves a counter from the observer's registry. Nil-safe.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Registry.Counter(name)
}

// Gauge resolves a gauge from the observer's registry. Nil-safe.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Registry.Gauge(name)
}

// Histogram resolves a histogram with the given bucket bounds from the
// observer's registry. Nil-safe.
func (o *Observer) Histogram(name string, bounds []float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Registry.Histogram(name, bounds)
}

// defaultObs is the process-wide observer, nil until a CLI enables
// telemetry (mirroring expvar's and Prometheus's global default). Engine
// layers fall back to it when their options carry no explicit observer, so
// flag-level enablement reaches every nested optimization without threading
// an observer through each constructor signature.
var defaultObs atomic.Pointer[Observer]

// SetDefault installs the process-wide default observer (nil to disable).
func SetDefault(o *Observer) {
	defaultObs.Store(o)
}

// Default returns the process-wide observer, or nil when telemetry is off.
func Default() *Observer {
	return defaultObs.Load()
}

// Or returns o if non-nil, else the process default. Engine constructors
// call it once per run.
func Or(o *Observer) *Observer {
	if o != nil {
		return o
	}
	return Default()
}

// Metric names. Counters end in _total; gauges and histograms are labeled
// where noted (see Label).
const (
	// MOptimizations counts completed optimizations, labeled tech=.
	MOptimizations = "sdpopt_optimizations_total"
	// MPlansCosted counts candidate plans costed across all runs.
	MPlansCosted = "sdpopt_plans_costed_total"
	// MPairsConsidered counts candidate class pairs the enumerator
	// examined. Its ratio to MPairsConnected is the enumerator's filtering
	// efficiency: the adjacency-indexed walk considers only the connected
	// neighborhood, the naive reference scan every pair.
	MPairsConsidered = "sdpopt_pairs_considered_total"
	// MPairsConnected counts considered pairs passing the
	// disjoint+connected filter.
	MPairsConnected = "sdpopt_pairs_connected_total"
	// MClassesCreated counts memo classes (JCRs) ever created.
	MClassesCreated = "sdpopt_memo_classes_created_total"
	// MClassesPruned counts classes removed by SDP pruning.
	MClassesPruned = "sdpopt_memo_classes_pruned_total"
	// MMemoAlive gauges the alive memo classes of running optimizations: an
	// optimization's classes leave it when its memo is released.
	MMemoAlive = "sdpopt_memo_classes_alive"
	// MMemoSimBytes gauges the simulated memo memory of running
	// optimizations.
	MMemoSimBytes = "sdpopt_memo_sim_bytes"
	// MMemoPeakSimBytes gauges the high-water mark of MMemoSimBytes.
	MMemoPeakSimBytes = "sdpopt_memo_peak_sim_bytes"
	// MBudgetAborts counts optimizations aborted by the memory budget.
	MBudgetAborts = "sdpopt_budget_aborts_total"
	// MOptimizeSeconds is the per-optimization duration histogram,
	// labeled tech=.
	MOptimizeSeconds = "sdpopt_optimize_seconds"
	// MLevelSeconds is the enumeration-level duration histogram, labeled
	// level=.
	MLevelSeconds = "sdpopt_level_seconds"
	// MSkylineSurvivors counts PruneGroup JCRs surviving a skyline
	// partition, labeled criterion= (RC, CS, RS, all).
	MSkylineSurvivors = "sdpopt_skyline_survivors_total"
	// MSkylineCandidates counts PruneGroup JCRs entering skyline
	// partitions.
	MSkylineCandidates = "sdpopt_skyline_candidates_total"
	// MIDPIterations counts IDP restart iterations.
	MIDPIterations = "sdpopt_idp_iterations_total"
	// MQueueDepth gauges the harness worker-pool queue depth.
	MQueueDepth = "sdpopt_harness_queue_depth"
	// MBatches counts harness batches run.
	MBatches = "sdpopt_harness_batches_total"
	// MTechniqueSeconds is the harness per-instance optimization duration,
	// labeled tech=.
	MTechniqueSeconds = "sdpopt_technique_seconds"

	// Plan-cache metrics (see internal/plancache).

	// MCacheHits counts plan-cache lookups served from a stored entry.
	MCacheHits = "sdpopt_plancache_hits_total"
	// MCacheMisses counts lookups that ran the underlying optimization.
	MCacheMisses = "sdpopt_plancache_misses_total"
	// MCacheDedup counts lookups coalesced onto another caller's in-flight
	// optimization of the same key (singleflight waiters).
	MCacheDedup = "sdpopt_plancache_dedup_total"
	// MCacheEvictions counts LRU evictions.
	MCacheEvictions = "sdpopt_plancache_evictions_total"
	// MCacheInvalidated counts entries dropped by explicit invalidation.
	MCacheInvalidated = "sdpopt_plancache_invalidated_total"
	// MCacheEntries gauges currently cached plans.
	MCacheEntries = "sdpopt_plancache_entries"

	// Serving-layer metrics (see internal/server).

	// MServerRequests counts HTTP requests, labeled route= and code=.
	MServerRequests = "sdpopt_server_requests_total"
	// MServerInFlight gauges optimizations currently executing.
	MServerInFlight = "sdpopt_server_in_flight"
	// MServerQueue gauges requests admitted but waiting for a slot.
	MServerQueue = "sdpopt_server_queue_depth"
	// MServerShed counts requests rejected with 429 by admission control.
	MServerShed = "sdpopt_server_shed_total"
	// MServerSeconds is the end-to-end /optimize latency histogram,
	// labeled source= (hit, dedup, miss, uncached).
	MServerSeconds = "sdpopt_server_seconds"
	// MServerQueueSeconds is the admission-wait histogram: time between a
	// request entering admission control and acquiring an execution slot,
	// kept separate from MServerSeconds so queueing delay and compute time
	// are individually attributable (shed requests never enter it).
	MServerQueueSeconds = "sdpopt_server_queue_seconds"
	// MServerCanonTruncated counts requests whose canonical-labeling search
	// exhausted its budget (query.Canon().Truncated): their fingerprints
	// may differ across equivalent spellings, degrading cache hit rate.
	MServerCanonTruncated = "sdpopt_server_canonical_truncated_total"

	// Plan-quality regret metrics (see internal/obs/regret).

	// MRegretRatio is the served-vs-reference cost-ratio histogram,
	// labeled tech= and shape=, with RatioBuckets bounds and trace-ID
	// exemplars linking extreme ratios to flight-recorder entries.
	MRegretRatio = "sdpopt_regret_ratio"
	// MRegretSamples counts completed shadow comparisons, labeled tech=.
	MRegretSamples = "sdpopt_regret_samples_total"
	// MRegretDropped counts shadow jobs dropped because the queue was full —
	// the shadow layer shedding itself, never the serving path.
	MRegretDropped = "sdpopt_regret_dropped_total"
	// MRegretDeduped counts shadow candidates suppressed because the same
	// fingerprint × catalog version was shadowed within the dedup window.
	MRegretDeduped = "sdpopt_regret_deduped_total"
	// MRegretShadowSeconds is the shadow re-optimization duration histogram.
	MRegretShadowSeconds = "sdpopt_regret_shadow_seconds"
	// MRegretShadowErrors counts shadow optimizations that failed (budget
	// abort, timeout); these produce no ratio sample.
	MRegretShadowErrors = "sdpopt_regret_shadow_errors_total"
	// MRegretQueueDepth gauges shadow jobs queued but not yet started.
	MRegretQueueDepth = "sdpopt_regret_queue_depth"

	// Technique-routing metrics (see internal/route).

	// MRouteDecisions counts executed routing outcomes, labeled route=
	// (the technique actually run), reason= (the router's decision reason,
	// or "explicit"), and source= (the plan-cache source label, so cache
	// hits record the route that produced them).
	MRouteDecisions = "sdpopt_route_decisions_total"
	// MRouteFallbacks counts mid-flight demotions: requests whose chosen
	// engine slice expired (or aborted on budget) and were re-run greedy.
	MRouteFallbacks = "sdpopt_route_fallbacks_total"

	// Cardinality-error robustness metrics (see internal/ce).

	// MCEEvaluations counts completed robustness evaluations — one
	// optimize-under-lie + recost-under-truth cycle — labeled tech=.
	MCEEvaluations = "sdpopt_ce_evaluations_total"
	// MCEInfeasible counts evaluations the technique could not finish
	// under the memory budget, labeled tech=.
	MCEInfeasible = "sdpopt_ce_infeasible_total"
	// MCEPlanRatio is the true-cost-over-true-optimum histogram of
	// plans chosen under a lying estimator, labeled tech=, with
	// RatioBuckets bounds.
	MCEPlanRatio = "sdpopt_ce_plan_ratio"
	// MCEQError is the per-join-node q-error histogram of the lying
	// model's intermediate cardinalities against the true model's,
	// labeled tech=.
	MCEQError = "sdpopt_ce_qerror"
	// MCEExecQError is the true model's q-error against actually executed
	// cardinalities (internal/exec) — validation of the truth itself.
	MCEExecQError = "sdpopt_ce_exec_qerror"

	// Cardinality-feedback metrics (see internal/feedback).

	// MFeedbackQError is the estimate-vs-actual q-error histogram of
	// executed plan nodes, labeled kind= (relation, predicate), with
	// RatioBuckets bounds and trace-ID exemplars linking the worst lies to
	// flight-recorder entries.
	MFeedbackQError = "sdpopt_feedback_qerror"
	// MFeedbackObservations counts ledger observations recorded, labeled
	// kind=.
	MFeedbackObservations = "sdpopt_feedback_observations_total"
	// MFeedbackSampled counts /optimize requests picked for off-path
	// execution sampling.
	MFeedbackSampled = "sdpopt_feedback_sampled_total"
	// MFeedbackSkipped counts sampled requests skipped before execution
	// (too many relations, relations too large, queue full, duplicate),
	// labeled cause=.
	MFeedbackSkipped = "sdpopt_feedback_skipped_total"
	// MFeedbackExecSeconds is the off-path sample-execution duration
	// histogram (generate + run + ledger update).
	MFeedbackExecSeconds = "sdpopt_feedback_exec_seconds"
	// MFeedbackExecErrors counts sampled executions that failed; these
	// contribute no observations.
	MFeedbackExecErrors = "sdpopt_feedback_exec_errors_total"
	// MFeedbackQueueDepth gauges sampled queries queued but not yet
	// executed.
	MFeedbackQueueDepth = "sdpopt_feedback_queue_depth"
	// MFeedbackStaleObjects gauges catalog objects currently flagged stale
	// by the ledger.
	MFeedbackStaleObjects = "sdpopt_feedback_stale_objects"

	// Process metrics (see RegisterBuildInfo).

	// MBuildInfo is the constant-1 gauge carrying version/goversion/
	// gomaxprocs labels for deploy correlation.
	MBuildInfo = "sdpopt_build_info"
	// MProcessStart is the process start time in unix seconds.
	MProcessStart = "sdpopt_process_start_time_seconds"
	// MUptime is the process uptime in seconds, computed at scrape.
	MUptime = "sdpopt_process_uptime_seconds"
)
