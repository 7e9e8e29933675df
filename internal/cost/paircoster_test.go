package cost

import (
	"math"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// sharedClassQuery joins the hand catalog's four relations so that spanning
// predicate lists repeat an equivalence class: A.c1 = B.c2, A.c1 = C.c3 and
// B.c2 = D.c1 all fall in one class (the indexed columns of all four
// relations), next to B.c3 = C.c1 and C.c2 = D.c2. D (100000 rows × 24 bytes)
// exceeds the default work_mem, A, B and C fit — so pairs fall on both sides
// of every spill test.
func sharedClassQuery(t *testing.T) *query.Query {
	t.Helper()
	preds := []query.Pred{
		{LeftRel: 0, LeftCol: 0, RightRel: 1, RightCol: 1}, // A.c1 = B.c2
		{LeftRel: 0, LeftCol: 0, RightRel: 2, RightCol: 2}, // A.c1 = C.c3, same class
		{LeftRel: 1, LeftCol: 2, RightRel: 2, RightCol: 0}, // B.c3 = C.c1
		{LeftRel: 2, LeftCol: 1, RightRel: 3, RightCol: 1}, // C.c2 = D.c2
		{LeftRel: 1, LeftCol: 1, RightRel: 3, RightCol: 0}, // B.c2 = D.c1, same class as the first
	}
	q, err := query.New(handCatalog(), []int{0, 1, 2, 3}, preds, nil)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	return q
}

// classPaths stands in for a memo class: some paths over one relation set. A
// leaf's are its access paths; a composite's are up to four joins of its two
// halves' paths with pairwise different output orders.
func classPaths(t *testing.T, m *Model, set bits.Set) []*plan.Plan {
	t.Helper()
	if set.Len() == 1 {
		return m.AccessPaths(set.Min())
	}
	left := bits.Single(set.Min())
	right := set.Diff(left)
	if !m.Q.Connected(left, right) {
		t.Fatalf("classPaths: %v does not split at its first relation", set)
	}
	var out []*plan.Plan
	seen := map[int]bool{}
	for _, l := range classPaths(t, m, left) {
		for _, r := range classPaths(t, m, right) {
			for _, in := range []JoinInputs{{Outer: l, Inner: r}, {Outer: r, Inner: l}} {
				in.Preds, in.Rows = m.Q.PredsBetween(left, right), m.SetRows(set)
				for _, p := range m.JoinPlans(in) {
					if !seen[p.Order] && len(out) < 4 {
						seen[p.Order] = true
						out = append(out, p)
					}
				}
			}
		}
	}
	if len(out) < 2 {
		t.Fatalf("classPaths: %v has %d ordered paths, want at least 2", set, len(out))
	}
	return out
}

// TestPairCosterReuseMatchesFresh is the coster's contract: one coster, begun
// once per class pair and reused for every path pair in both orientations
// (and across pairs), returns the candidates a fresh coster per call returns,
// bit for bit, and advances PlansCosted as far. The pairs cover leaf × leaf
// with sequential and index paths, leaf × composite, composite × composite,
// predicate lists that repeat an equivalence class, an unconnected pair with
// no predicate at all, inputs on both sides of work_mem, and a class whose
// paths disagree on Rows — interleaved, so the keyed terms must flip back and
// forth rather than be computed once.
func TestPairCosterReuseMatchesFresh(t *testing.T) {
	q := sharedClassQuery(t)
	src := NewModel(q, DefaultParams()) // builds the paths; its counter is not compared
	reused, fresh := NewModel(q, DefaultParams()), NewModel(q, DefaultParams())

	pairs := [][2]bits.Set{
		{bits.Of(0), bits.Of(1)},       // leaf × leaf, both indexed on the join class
		{bits.Of(2), bits.Of(3)},       // leaf × leaf, D spills
		{bits.Of(0), bits.Of(3)},       // unconnected: no predicate, no merge join
		{bits.Of(0), bits.Of(1, 2)},    // leaf × composite, two predicates of one class
		{bits.Of(3), bits.Of(0, 1, 2)}, // spilling leaf × composite
		{bits.Of(0, 1), bits.Of(2, 3)}, // composite × composite, four predicates, one class twice
	}
	var pc PairCoster
	for _, pr := range pairs {
		a, b := classPaths(t, src, pr[0]), classPaths(t, src, pr[1])
		if pr[0] == bits.Of(0, 1) {
			// Paths of one class that disagree on Rows, between paths that agree.
			odd := *a[0]
			odd.Rows *= 2
			a = append([]*plan.Plan{a[0], &odd}, a[1:]...)
		}
		preds := q.PredsBetween(pr[0], pr[1])
		rows := src.SetRows(pr[0].Union(pr[1]))
		pc.Begin(reused, preds, rows, reused.Width(pr[0]), reused.Width(pr[1]))
		for _, pa := range a {
			for _, pb := range b {
				for _, swapped := range []bool{false, true} {
					o, i := pa, pb
					if swapped {
						o, i = pb, pa
					}
					reused.PlansCosted, fresh.PlansCosted = 0, 0
					got := pc.AppendCands(nil, o, i, swapped)
					want := fresh.AppendJoinCands(nil, JoinInputs{Outer: o, Inner: i, Preds: preds, Rows: rows})
					if reused.PlansCosted != fresh.PlansCosted {
						t.Errorf("%v × %v swapped=%v: reused coster counted %d plans, fresh %d",
							pr[0], pr[1], swapped, reused.PlansCosted, fresh.PlansCosted)
					}
					if len(got) != len(want) {
						t.Fatalf("%v × %v swapped=%v: %d candidates, fresh %d", pr[0], pr[1], swapped, len(got), len(want))
					}
					for k := range got {
						g, w := got[k], want[k]
						if g.Op != w.Op || g.Order != w.Order || g.Outer != w.Outer || g.Inner != w.Inner ||
							math.Float64bits(g.Cost) != math.Float64bits(w.Cost) ||
							math.Float64bits(g.Rows) != math.Float64bits(w.Rows) {
							t.Errorf("%v × %v swapped=%v candidate %d: reused %+v, fresh %+v", pr[0], pr[1], swapped, k, g, w)
						}
					}
				}
			}
		}
	}
}
