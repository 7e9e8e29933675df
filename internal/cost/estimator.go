// Estimator is the pluggable cardinality-estimation boundary: every number
// the cost model consumes — base-relation rows, join-predicate
// selectivities, effective distinct counts, filter selectivities — flows
// through this interface. The Model owns cost arithmetic; the Estimator
// owns statistics. The default CatalogEstimator reproduces the catalog-
// driven estimation the Model previously computed inline, bit for bit
// (guarded by the golden corpus in internal/ce); alternative
// implementations inject controlled error (internal/ce's Injector) or
// could slot in a learned model.
package cost

import (
	"math"

	"sdpopt/internal/query"
)

// Estimator supplies the cardinality estimates for one query. The Model
// reads RelRows and PredSel once at construction (and again on
// SetEstimator) into flat arrays for the enumeration hot path, and calls
// ColumnNDV/FilterSel on the cold paths that need them. Implementations
// must be deterministic, pure functions of their construction inputs, and
// safe for concurrent reads — concurrent optimizations may share one.
type Estimator interface {
	// Name identifies the estimator in reports and metrics.
	Name() string
	// RelRows returns the estimated post-filter output cardinality of
	// query-local relation i (≥ 1).
	RelRows(i int) float64
	// PredSel returns the estimated selectivity of join predicate pi,
	// in (0, 1].
	PredSel(pi int) float64
	// ColumnNDV returns the effective distinct count of (rel, col) after
	// skew and range filters, in [1, RelRows(rel)].
	ColumnNDV(rel, col int) float64
	// FilterSel returns the estimated selectivity of local range filter f,
	// in (0, 1].
	FilterSel(f query.Filter) float64
}

// PostgreSQL's magic fallback constants (selfuncs.h), used when a column's
// ANALYZE statistics are unavailable (catalog.Column.StatsLost).
const (
	// DefaultRangeSel is DEFAULT_INEQ_SEL: the assumed selectivity of a
	// range comparison against a column with no histogram.
	DefaultRangeSel = 1.0 / 3.0
	// DefaultNDV is DEFAULT_NUM_DISTINCT: the assumed distinct count of a
	// column with no n_distinct statistic. Two stats-less join columns thus
	// estimate at 1/200 = 0.005, PostgreSQL's DEFAULT_EQ_SEL.
	DefaultNDV = 200.0
)

// CatalogEstimator is the default estimator: it derives every estimate
// from the query's catalog statistics exactly as the cost model historically
// did — ANALYZE-style histogram CDFs for filters, skew-adjusted effective
// NDVs, and eqjoinsel's 1/max(ndv) for equi-joins. Columns marked StatsLost
// fall back to the magic constants above. Read-only after construction.
type CatalogEstimator struct {
	q       *query.Query
	relRows []float64
}

// NewCatalogEstimator builds the default estimator for q, precomputing
// post-filter relation cardinalities.
func NewCatalogEstimator(q *query.Query) *CatalogEstimator {
	e := &CatalogEstimator{q: q, relRows: make([]float64, q.NumRelations())}
	for i := 0; i < q.NumRelations(); i++ {
		rows := q.Relation(i).Rows
		for _, f := range q.FiltersOn(i) {
			rows *= e.FilterSel(f)
		}
		if rows < 1 {
			rows = 1
		}
		e.relRows[i] = rows
	}
	return e
}

// Name implements Estimator.
func (e *CatalogEstimator) Name() string { return "catalog" }

// RelRows implements Estimator.
func (e *CatalogEstimator) RelRows(i int) float64 { return e.relRows[i] }

// FilterSel estimates a range filter's selectivity from the column's value
// distribution (ANALYZE-style: the CDF a histogram encodes), so skewed
// columns — where most rows carry small values — estimate accurately rather
// than assuming uniformity. A column with no statistics gets the magic
// one-third.
func (e *CatalogEstimator) FilterSel(f query.Filter) float64 {
	col := e.q.Relation(f.Rel).Cols[f.Col]
	if col.StatsLost {
		return DefaultRangeSel
	}
	sel := col.FracBelow(float64(f.Bound))
	if sel <= 0 {
		return 1e-9 // a filter never returns exactly nothing in estimates
	}
	return sel
}

// ColumnNDV is the effective distinct count of (rel, col) after skew and
// any range filters on that column, capped by the relation's filtered
// cardinality. A column with no statistics assumes DefaultNDV distincts.
func (e *CatalogEstimator) ColumnNDV(rel, col int) float64 {
	c := e.q.Relation(rel).Cols[col]
	var ndv float64
	if c.StatsLost {
		ndv = DefaultNDV
	} else {
		ndv = c.EffectiveNDV()
	}
	for _, f := range e.q.FiltersOn(rel) {
		if f.Col == col {
			// A range filter keeps only the matching slice of the domain.
			ndv *= e.FilterSel(f)
		}
	}
	return math.Max(1, math.Min(ndv, e.relRows[rel]))
}

// PredSel estimates the selectivity of equi-join predicate pi as
// 1/max(effective ndv of either side), PostgreSQL's eqjoinsel formula, with
// skew folded into the effective distinct counts.
func (e *CatalogEstimator) PredSel(pi int) float64 {
	p := e.q.Preds[pi]
	lNDV := e.ColumnNDV(p.LeftRel, p.LeftCol)
	rNDV := e.ColumnNDV(p.RightRel, p.RightCol)
	sel := 1 / math.Max(lNDV, rNDV)
	if sel > 1 {
		return 1
	}
	return sel
}
