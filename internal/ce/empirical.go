package ce

import (
	"fmt"
	"math"

	"sdpopt/internal/cost"
	"sdpopt/internal/feedback"
	"sdpopt/internal/query"
)

// EmpiricalEstimator replays a measured cardinality-error profile: instead
// of the Injector's synthetic log-normal lies, each base-relation estimate
// and join-predicate selectivity is multiplied by the geomean est/actual
// factor the feedback ledger actually observed for that catalog object
// (feedback.BuildProfile over an exec-sampled JSONL corpus). Objects the
// corpus never saw keep factor 1 — the harness only injects error it has
// evidence for.
//
// This closes the loop the paper leaves open: the robustness sweep stops
// asking "how do the techniques behave under hypothetical band-b error?"
// and starts asking "how do they behave under the estimation error this
// serving deployment measurably has?".
//
// Like the Injector, all factors are resolved at construction from stable
// catalog-level identities (relation names, sorted predicate labels), so an
// EmpiricalEstimator is read-only afterwards and safe to share across
// concurrent optimizations — and the same profile replays bit-identically into
// every query that touches the same objects.
type EmpiricalEstimator struct {
	base cost.Estimator

	relFactor  []float64 // per query-local relation
	predFactor []float64 // per query predicate
	n          int       // observations behind the profile, for Name
}

// NewEmpiricalEstimator wraps base (nil selects the catalog estimator for
// q) in the measured error factors of profile. A nil or empty profile
// yields factor 1 everywhere — bit-identical to the base.
func NewEmpiricalEstimator(q *query.Query, base cost.Estimator, profile *feedback.ErrorProfile) *EmpiricalEstimator {
	if base == nil {
		base = cost.NewCatalogEstimator(q)
	}
	e := &EmpiricalEstimator{
		base:       base,
		relFactor:  make([]float64, q.NumRelations()),
		predFactor: make([]float64, len(q.Preds)),
	}
	if profile != nil {
		e.n = profile.Observations
	}
	for i := range e.relFactor {
		e.relFactor[i] = profile.RelFactor(q.Relation(i).Name)
	}
	for pi := range e.predFactor {
		e.predFactor[pi] = profile.PredFactor(feedback.PredLabel(q, pi))
	}
	return e
}

// Name implements cost.Estimator.
func (e *EmpiricalEstimator) Name() string {
	return fmt.Sprintf("%s+empirical(n=%d)", e.base.Name(), e.n)
}

// RelRows implements cost.Estimator: the base estimate times the measured
// relation factor, floored at one row.
func (e *EmpiricalEstimator) RelRows(i int) float64 {
	return math.Max(1, e.base.RelRows(i)*e.relFactor[i])
}

// PredSel implements cost.Estimator: the base selectivity times the
// measured predicate factor, clamped to (0, 1].
func (e *EmpiricalEstimator) PredSel(pi int) float64 {
	return math.Min(1, e.base.PredSel(pi)*e.predFactor[pi])
}

// ColumnNDV implements cost.Estimator. Passed through for the same reason
// the Injector passes it through: the replayed error already reaches join
// cardinalities via PredSel.
func (e *EmpiricalEstimator) ColumnNDV(rel, col int) float64 { return e.base.ColumnNDV(rel, col) }

// FilterSel implements cost.Estimator, passed through (relation-level error
// is expressed via RelRows).
func (e *EmpiricalEstimator) FilterSel(f query.Filter) float64 { return e.base.FilterSel(f) }
