package cost

import (
	"math"
	"math/rand"
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
					oIn, iIn := InputOf(o, 0), InputOf(i, 1)
					got := pc.AppendCands(nil, &oIn, &iIn, swapped, &Bar{})
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

// refBar is the admission rule of a memo class holding paths of these costs,
// written out independently of Bar: a class holding nothing keeps anything;
// otherwise it keeps a candidate no dearer than its cheapest path or, if the
// candidate is ordered, no dearer than its path of that order or of an order
// it holds no path of.
type refBar struct {
	held    bool
	best    float64
	ordered map[int]float64
}

func (r *refBar) admits(c float64, order int) bool {
	if !r.held || c <= r.best {
		return true
	}
	if order == plan.NoOrder {
		return false
	}
	oc, ok := r.ordered[order]
	return !ok || c <= oc
}

// randomBar draws a class's bar around the candidates of a pair: open one
// time in eight, otherwise a best cost and a path for some of the orders the
// candidates deliver (and one they do not), each cost either one of the
// candidates' own — so ties are common — or one scaled from it.
func randomBar(rng *rand.Rand, cands []JoinCand) (*Bar, *refBar) {
	b, r := &Bar{}, &refBar{ordered: map[int]float64{}}
	if rng.Intn(8) == 0 || len(cands) == 0 {
		return b, r
	}
	pick := func() float64 {
		c := cands[rng.Intn(len(cands))].Cost
		switch rng.Intn(3) {
		case 0:
			return c
		case 1:
			return c * (0.5 + rng.Float64())
		}
		return math.Nextafter(c, math.Inf(-1+2*rng.Intn(2)))
	}
	r.held, r.best = true, pick()
	b.Reset(r.best)
	orders := map[int]bool{99: true}
	for _, c := range cands {
		if c.Order != plan.NoOrder {
			orders[c.Order] = true
		}
	}
	for o := 0; o <= 99; o++ {
		if orders[o] && rng.Intn(3) > 0 {
			r.ordered[o] = math.Max(r.best, pick()) // an ordered path never undercuts Best
			b.Ordered(o, r.ordered[o])
		}
	}
	return b, r
}

// sameCand compares two candidates bit for bit.
func sameCand(g, w JoinCand) bool {
	return g.Op == w.Op && g.Order == w.Order && g.Outer == w.Outer && g.Inner == w.Inner &&
		math.Float64bits(g.Cost) == math.Float64bits(w.Cost) &&
		math.Float64bits(g.Rows) == math.Float64bits(w.Rows) &&
		math.Float64bits(g.OuterCost) == math.Float64bits(w.OuterCost) &&
		math.Float64bits(g.InnerCost) == math.Float64bits(w.InnerCost)
}

// TestAppendCandsGate is the gated kernel's contract, over the join golden's
// inputs in both orientations and random bars:
//
//   - under an open bar, AppendCands returns every candidate, in operator
//     order, each the one the single-operator constructors (Recost's path)
//     cost and build, and advances PlansCosted as far as they do together;
//   - under any bar it returns exactly the subsequence of those candidates
//     the class's admission rule keeps (refBar), bit for bit, and advances
//     PlansCosted by the same amount as under the open bar.
func TestAppendCandsGate(t *testing.T) {
	q := fixtureQuery(t, &query.OrderSpec{Rel: 1, Col: 1})
	m := NewModel(q, DefaultParams())
	ref := NewModel(q, DefaultParams())
	rng := rand.New(rand.NewSource(1))
	var pc PairCoster
	var open Bar
	rejected := 0
	for n, in := range joinCases(t, m) {
		pc.Begin(m, in.Preds, in.Rows, m.Width(in.Outer.Rels), m.Width(in.Inner.Rels))
		for _, swapped := range []bool{false, true} {
			o, i := in.Outer, in.Inner
			if swapped {
				o, i = i, o
			}
			oIn, iIn := InputOf(o, 0), InputOf(i, 1)
			before := m.PlansCosted
			all := pc.AppendCands(nil, &oIn, &iIn, swapped, &open)
			costed := m.PlansCosted - before

			// The open bar against the single-operator constructors.
			refIn := JoinInputs{Outer: o, Inner: i, Preds: in.Preds, Rows: in.Rows}
			refBefore := ref.PlansCosted
			var want []*plan.Plan
			want = append(want, ref.joinOne(refIn, plan.NestLoop, plan.NoOrder))
			if p := ref.joinOne(refIn, plan.IndexNestLoop, plan.NoOrder); p != nil {
				want = append(want, p)
			}
			want = append(want, ref.joinOne(refIn, plan.HashJoin, plan.NoOrder))
			for _, ec := range pc.mergeClasses {
				want = append(want, ref.joinOne(refIn, plan.MergeJoin, ec))
			}
			if got := ref.PlansCosted - refBefore; got != costed {
				t.Fatalf("case %d swapped=%v: open bar counted %d plans, the constructors %d", n, swapped, costed, got)
			}
			if len(all) != len(want) {
				t.Fatalf("case %d swapped=%v: open bar returned %d candidates, the constructors %d", n, swapped, len(all), len(want))
			}
			for k, c := range all {
				if p := m.BuildJoin(c, o, i); planSig(p) != planSig(want[k]) {
					t.Fatalf("case %d swapped=%v candidate %d: built %s, constructor %s", n, swapped, k, planSig(p), planSig(want[k]))
				}
			}

			for range 8 {
				bar, rb := randomBar(rng, all)
				before := m.PlansCosted
				got := pc.AppendCands(nil, &oIn, &iIn, swapped, bar)
				if d := m.PlansCosted - before; d != costed {
					t.Fatalf("case %d swapped=%v: gated run counted %d plans, open %d", n, swapped, d, costed)
				}
				var keep []JoinCand
				for _, c := range all {
					if rb.admits(c.Cost, c.Order) {
						keep = append(keep, c)
					}
				}
				rejected += len(all) - len(keep)
				if len(got) != len(keep) {
					t.Fatalf("case %d swapped=%v: gated run returned %d candidates, the rule keeps %d", n, swapped, len(got), len(keep))
				}
				for k := range got {
					if !sameCand(got[k], keep[k]) {
						t.Fatalf("case %d swapped=%v candidate %d: gated %+v, want %+v", n, swapped, k, got[k], keep[k])
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no bar rejected a candidate; the gate is untested")
	}
}
