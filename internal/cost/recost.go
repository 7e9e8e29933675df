package cost

import (
	"fmt"

	"sdpopt/internal/plan"
)

// Recost rebuilds p's cost and cardinality annotations bottom-up under this
// model's estimates, preserving the tree's shape, operators, and orderings
// exactly. It is the robustness harness's truth lens: optimize a query under
// a lying estimator, then Recost the chosen plan under the true model to
// learn what the plan will really cost. Recosting a plan under the model
// that produced it reproduces every Cost and Rows bit for bit (guarded by a
// test), because each operator's arithmetic below is the same code path the
// enumerator used to build it.
//
// The input tree is never mutated (plans are immutable); the result is a
// fresh tree. Recost panics on a malformed tree — callers hand it plans
// produced by this package's own enumeration.
func (m *Model) Recost(p *plan.Plan) *plan.Plan {
	if p == nil {
		return nil
	}
	switch p.Op {
	case plan.SeqScan:
		return m.seqScan(p.Rel)
	case plan.IndexScan:
		return m.indexScan(p.Rel, p.Order)
	case plan.Sort:
		return m.SortPlan(m.Recost(p.Left), p.Order)
	}
	// Join node: recost the children, recompute the joined cardinality from
	// the canonical SetRows, and re-run the operator's own costing. A merge
	// join's tree already carries any explicit sorts the merge needed, so the
	// recosted children arrive ordered on p.Order and it inserts nothing new.
	if !p.Op.IsJoin() {
		panic(fmt.Sprintf("cost: Recost: unknown operator %v", p.Op))
	}
	o, i := m.Recost(p.Left), m.Recost(p.Right)
	in := JoinInputs{
		Outer: o,
		Inner: i,
		Preds: m.Q.PredsBetween(p.Left.Rels, p.Right.Rels),
		Rows:  m.SetRows(p.Rels),
	}
	np := m.joinOne(in, p.Op, p.Order)
	if np == nil {
		// The applicability conditions are structural (inner is a scan
		// whose indexed column joins across); they cannot change between
		// models of the same query.
		panic(fmt.Sprintf("cost: Recost: indexed nested loop no longer applicable over %v", p.Rels))
	}
	return np
}
