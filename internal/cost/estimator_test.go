package cost

import (
	"math"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/catalog"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// scaledEstimator doubles every base-relation estimate of the wrapped
// estimator — a minimal lying estimator for the memo-reset guard.
type scaledEstimator struct {
	Estimator
	factor float64
}

func (s scaledEstimator) Name() string          { return "scaled" }
func (s scaledEstimator) RelRows(i int) float64 { return s.Estimator.RelRows(i) * s.factor }

func chainQuery(t *testing.T, n int) *query.Query {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumRelations = n
	cat, err := catalog.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rels := make([]int, n)
	preds := make([]query.Pred, 0, n-1)
	for i := range rels {
		rels[i] = i
		if i > 0 {
			preds = append(preds, query.Pred{LeftRel: i - 1, LeftCol: 0, RightRel: i, RightCol: 1})
		}
	}
	q, err := query.New(cat, rels, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// indexNestLoopSig is the fixture's A ⋈ B indexed nested loop under m — cost
// and inner index scan node, bit for bit. It reads what derive snapshots per
// relation (the probe cost and the shared scan node).
func indexNestLoopSig(m *Model) string {
	a, b := m.AccessPaths(0)[0], m.AccessPaths(1)[0]
	p := m.joinOne(JoinInputs{Outer: a, Inner: b, Preds: m.Q.PredsBetween(a.Rels, b.Rels), Rows: m.SetRows(bits.Of(0, 1))}, plan.IndexNestLoop, plan.NoOrder)
	if p == nil {
		return "indexed nested loop does not apply"
	}
	return planSig(p)
}

// TestSetEstimatorResetsMemo guards the refactor's sharpest edge: SetRows is
// memoized per relation set, so swapping estimators must invalidate the
// memo — a stale entry would let a "true" model serve cardinalities computed
// under the lie. The same holds for the per-relation index probe cost and
// index scan node an indexed nested loop reads.
func TestSetEstimatorResetsMemo(t *testing.T) {
	q := chainQuery(t, 5)
	m := NewModel(q, DefaultParams())
	s := bits.Of(0, 1, 2)
	orig := m.SetRows(s)

	def := m.Estimator()
	m.SetEstimator(scaledEstimator{Estimator: def, factor: 2})
	scaled := m.SetRows(s)
	if scaled == orig {
		t.Fatalf("SetRows(%v) = %g unchanged after estimator swap — stale memo", s, orig)
	}
	// Three base relations doubled, predicate selectivities unchanged.
	if want := orig * 8; math.Abs(scaled-want)/want > 1e-12 {
		t.Errorf("scaled SetRows = %g, want %g", scaled, want)
	}

	m.SetEstimator(nil) // restore the default catalog estimator
	if back := m.SetRows(s); back != orig {
		t.Errorf("SetRows after restoring default = %g, want bit-identical %g", back, orig)
	}

	fq := fixtureQuery(t, nil)
	fm := NewModel(fq, DefaultParams())
	origINL := indexNestLoopSig(fm)
	lie := scaledEstimator{Estimator: NewCatalogEstimator(fq), factor: 2}
	fm.SetEstimator(lie)
	swapped := indexNestLoopSig(fm)
	if swapped == origINL {
		t.Fatalf("indexed nested loop %s unchanged after estimator swap — stale probe cost or scan node", origINL)
	}
	if want := indexNestLoopSig(NewModelEst(fq, DefaultParams(), lie)); swapped != want {
		t.Errorf("indexed nested loop after SetEstimator: %s\nfresh model under it:              %s", swapped, want)
	}
	fm.SetEstimator(nil)
	if back := indexNestLoopSig(fm); back != origINL {
		t.Errorf("indexed nested loop after restoring default: %s, want %s", back, origINL)
	}
}

// TestStatsLostFallbacks checks the magic-selectivity path: a column with
// StatsLost estimates with PostgreSQL's defaults, never its (zeroed) NDV.
func TestStatsLostFallbacks(t *testing.T) {
	cfg := catalog.DefaultConfig()
	cfg.NumRelations = 8
	cat, err := catalog.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lose statistics on both sides of the first join predicate's columns.
	// The relations must exceed DefaultNDV rows so the [1, relRows] cap
	// doesn't shadow the magic constant.
	for _, rel := range []int{5, 6} {
		c := &cat.Rels[rel].Cols[0]
		c.StatsLost = true
		c.NDV = 0
		c.Skew = 0
	}
	rels := []int{5, 6, 7}
	preds := []query.Pred{
		{LeftRel: 0, LeftCol: 0, RightRel: 1, RightCol: 0},
		{LeftRel: 1, LeftCol: 1, RightRel: 2, RightCol: 1},
	}
	q, err := query.New(cat, rels, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(q, DefaultParams())
	// Both sides lost, relations larger than DefaultNDV → 1/200.
	if got := m.PredSel(0); got != 1/DefaultNDV {
		t.Errorf("PredSel over stats-lost columns = %g, want %g", got, 1/DefaultNDV)
	}
	// The healthy predicate keeps its catalog estimate.
	healthy := NewModel(q, DefaultParams())
	if got, want := healthy.PredSel(1), m.PredSel(1); got != want {
		t.Errorf("healthy predicate drifted: %g vs %g", got, want)
	}

	// A filter on a stats-lost column gets the magic one-third.
	qf, err := query.NewFiltered(cat, rels, preds,
		[]query.Filter{{Rel: 0, Col: 0, Bound: 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mf := NewModel(qf, DefaultParams())
	if got := mf.FilterSel(qf.Filters[0]); got != DefaultRangeSel {
		t.Errorf("FilterSel on stats-lost column = %g, want %g", got, DefaultRangeSel)
	}
	// And the relation's base rows reflect it.
	if got, want := mf.BaseRows(0), math.Max(1, cat.Rels[5].Rows*DefaultRangeSel); got != want {
		t.Errorf("BaseRows under lost stats = %g, want %g", got, want)
	}
}
