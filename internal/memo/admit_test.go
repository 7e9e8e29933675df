package memo

import (
	"errors"
	"math/rand"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
)

// candStream returns a random stream of join candidates over relations {0, 1}
// of a 3-relation chain, with the model that builds them. Costs come from a
// handful of values so exact ties are common, and the operators, inputs and
// orders vary so those ties are decided by plan.Compare's structural order:
// merge joins with zero, one or two sorts, indexed nested loops, ordered and
// unordered candidates over few order classes — and so a new Best displacing
// the ordered path of its order.
func candStream(t *testing.T, rng *rand.Rand, n int) (*cost.Model, []cost.JoinCand) {
	t.Helper()
	q := testutil.MustQuery(testutil.Catalog(3), 3, query.ChainEdges(3), nil)
	m := cost.NewModel(q, cost.DefaultParams())
	var inputs [2][]*plan.Plan
	for r := range inputs {
		inputs[r] = m.AccessPaths(r)
	}
	ops := []plan.Op{plan.NestLoop, plan.HashJoin, plan.MergeJoin, plan.IndexNestLoop}
	out := make([]cost.JoinCand, n)
	for k := range out {
		side := rng.Intn(2)
		out[k] = cost.JoinCand{
			Outer: inputs[side][rng.Intn(len(inputs[side]))],
			Inner: inputs[1-side][rng.Intn(len(inputs[1-side]))],
			Rows:  10,
			Cost:  float64(1 + rng.Intn(6)),
			Order: rng.Intn(4) - 1, // NoOrder, 0, 1, 2
			Op:    ops[rng.Intn(len(ops))],
		}
	}
	return m, out
}

// admits snapshots ps's admission bar and tests a candidate against it.
func admits(ps *pathSet, c float64, order int) bool {
	var b cost.Bar
	ps.Bar(&b)
	return b.Admits(c, order)
}

// TestAdmitThenOfferMatchesOfferAll is the contract the join kernel's
// cost → gate → offer loop rests on, for both kinds of input:
//
//   - built plans: skipping every candidate the path set's bar does not
//     admit leaves exactly the state offering every candidate leaves — the
//     same Best and the same ordered plans, pointer for pointer, and the
//     same summed retained-path delta — and a candidate that is not admitted
//     would have been dropped by offer with delta 0;
//   - a stale bar: gating with a bar snapshotted again only after some of
//     the offers it retained — never after a rejected one — retains the
//     same paths at every step, since it admits a superset of what the
//     current bar admits and offer drops the extra candidates with delta 0;
//   - unbuilt candidates: offering the admitted stream to a class as values
//     (Memo.AddCand) and reading the class afterwards gives trees plan.Compare
//     finds equal to those of offering the built plans, with the same path
//     delta at every step — retention decides on (cost, order) and on ties
//     on the trees the candidates become, so building later changes nothing.
//
// Best is checked against the plan.Compare minimum of the stream throughout.
// A last case offers candidates without cost ties and reads the class by cost
// only — FeatureVector, BestCost, Bar — which must build nothing and leave
// the class open; the first tree read closes it.
func TestAdmitThenOfferMatchesOfferAll(t *testing.T) {
	totalStaleExtra := 0 // candidates admitted only by the stale bar
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model, cands := candStream(t, rng, 60)
		lazyMemo := New(0)
		lazyMemo.Model = model
		lazy, err := lazyMemo.NewClass(bits.Of(0, 1), 2, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		var all, admitted, stale pathSet
		var staleBar cost.Bar // stale's bar, snapshotted after half its retentions
		var allDelta, admittedDelta, staleDelta, skipped, staleExtra int
		var least *plan.Plan // the plan.Compare minimum offered so far
		for n, c := range cands {
			p := model.BuildJoin(c)
			admit := admits(&all, p.Cost, p.Order)
			staleAdmit := staleBar.Admits(p.Cost, p.Order)
			if admit && !staleAdmit {
				t.Fatalf("seed %d step %d: the current bar admits, the stale one does not", seed, n)
			}
			d, kept := all.offer(path{plan: p}, nil)
			allDelta += d
			if least == nil || plan.Less(p, least) {
				least = p
			}
			if plan.Compare(all.best.plan, least) != 0 {
				t.Fatalf("seed %d step %d: Best is not the least plan offered under plan.Compare", seed, n)
			}
			if !admit && (kept || d != 0) {
				t.Fatalf("seed %d step %d: not admitted, but offer kept=%v delta=%d", seed, n, kept, d)
			}
			if admits(&admitted, p.Cost, p.Order) != admit || admits(&lazy.pathSet, c.Cost, c.Order) != admit {
				t.Fatalf("seed %d step %d: the sets disagree on admission", seed, n)
			}
			if staleAdmit {
				d, kept := stale.offer(path{plan: p}, nil)
				staleDelta += d
				if !admit {
					staleExtra++
					if kept || d != 0 {
						t.Fatalf("seed %d step %d: admitted only by the stale bar, but offer kept=%v delta=%d", seed, n, kept, d)
					}
				}
				if kept && rng.Intn(2) == 0 {
					stale.Bar(&staleBar)
				}
			}
			if admit {
				d, _ := admitted.offer(path{plan: p}, nil)
				admittedDelta += d
				before := lazyMemo.Stats.PathsRetained
				if _, err := lazyMemo.AddCand(lazy, c); err != nil {
					t.Fatal(err)
				}
				if ld := int(lazyMemo.Stats.PathsRetained - before); ld != d {
					t.Fatalf("seed %d step %d: path delta %d offering the candidate, %d offering the plan", seed, n, ld, d)
				}
			} else {
				skipped++
			}
			if all.best.plan != admitted.best.plan || all.best.plan != stale.best.plan {
				t.Fatalf("seed %d step %d: Best diverged", seed, n)
			}
			if lazy.BestCost() != admitted.best.cost() {
				t.Fatalf("seed %d step %d: lazy Best costs %v, built %v", seed, n, lazy.BestCost(), admitted.best.cost())
			}
			if len(all.ordered) != len(admitted.ordered) || len(lazy.ordered) != len(admitted.ordered) || len(stale.ordered) != len(all.ordered) {
				t.Fatalf("seed %d step %d: %d / %d / %d / %d ordered paths", seed, n, len(all.ordered), len(admitted.ordered), len(lazy.ordered), len(stale.ordered))
			}
			for i := range all.ordered {
				if all.ordered[i].plan != admitted.ordered[i].plan || all.ordered[i].plan != stale.ordered[i].plan {
					t.Fatalf("seed %d step %d: ordered[%d] diverged", seed, n, i)
				}
			}
		}
		if allDelta != admittedDelta || allDelta != staleDelta || allDelta != all.numPaths() || int(lazyMemo.Stats.PathsRetained) != allDelta {
			t.Fatalf("seed %d: path delta %d offering all, %d after admission, %d after stale admission, %d offering candidates, %d paths retained",
				seed, allDelta, admittedDelta, staleDelta, lazyMemo.Stats.PathsRetained, all.numPaths())
		}
		if skipped == 0 {
			t.Fatalf("seed %d: admission never said no; the stream tests nothing", seed)
		}
		totalStaleExtra += staleExtra
		want, got := admitted.appendPaths(nil, nil), lazy.Paths()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d trees read from the candidates, %d from the plans", seed, len(got), len(want))
		}
		for i := range want {
			if plan.Compare(got[i], want[i]) != 0 {
				t.Fatalf("seed %d: path %d built into %+v, the plan offered was %+v", seed, i, got[i], want[i])
			}
		}
	}

	if totalStaleExtra == 0 {
		t.Fatal("the stale bar never admitted more than the current one; the stale stream tests nothing")
	}

	// Cost-only reads build nothing and leave the class open.
	rng := rand.New(rand.NewSource(7))
	model, cands := candStream(t, rng, 20)
	m := New(0)
	m.Model = model
	c, err := m.NewClass(bits.Of(0, 1), 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, jc := range cands {
		jc.Cost = float64(100 - i) // distinct costs: no tie builds a tree to compare
		if _, err := m.AddCand(c, jc); err != nil {
			t.Fatal(err)
		}
		_ = c.FeatureVector()
		_ = c.BestCost()
		var b cost.Bar
		c.Bar(&b)
		_ = b.Admits(jc.Cost, jc.Order)
	}
	unbuilt := func() int {
		n := 0
		if c.best.plan == nil {
			n++
		}
		for i := range c.ordered {
			if c.ordered[i].id != c.best.id && c.ordered[i].plan == nil {
				n++
			}
		}
		return n
	}
	if got, want := unbuilt(), c.numPaths(); got != want {
		t.Fatalf("cost-only reads built %d of %d retained paths", want-got, want)
	}
	if fv := c.FeatureVector(); fv.Cost != 81 {
		t.Fatalf("FeatureVector cost = %v, want 81 (the cheapest offered)", fv.Cost)
	}
	if best := c.Best(); best == nil || best.Cost != 81 {
		t.Fatalf("Best = %+v, want the cost-81 candidate built", best)
	}
	if c.best.plan == nil {
		t.Fatal("Best did not build the cheapest path")
	}
	if _, err := m.AddCand(c, cands[0]); !errors.Is(err, ErrReadOffer) {
		t.Fatalf("offer after a read: err = %v, want ErrReadOffer", err)
	}
}

// TestAdmitsTiesAndOrders spells out the boundary cases of a path set's bar:
// ties are admitted, an ordered candidate is admitted on either criterion,
// and an unordered one only against Best.
func TestAdmitsTiesAndOrders(t *testing.T) {
	set := bits.Of(0, 1)
	var ps pathSet
	if !admits(&ps, 1e9, plan.NoOrder) {
		t.Error("empty set must admit anything")
	}
	ps.offer(path{plan: mkPlan(set, 10, plan.NoOrder)}, nil)
	ps.offer(path{plan: mkPlan(set, 20, 1)}, nil)
	for _, c := range []struct {
		cost  float64
		order int
		want  bool
	}{
		{9, plan.NoOrder, true},
		{10, plan.NoOrder, true}, // tie with Best
		{11, plan.NoOrder, false},
		{15, 1, true},  // beats the order-1 plan
		{20, 1, true},  // ties it
		{21, 1, false}, // loses to both
		{1e9, 2, true}, // first plan of its order
		{11, 1, true},
	} {
		if got := admits(&ps, c.cost, c.order); got != c.want {
			t.Errorf("Admits(%v, %d) = %v, want %v", c.cost, c.order, got, c.want)
		}
	}
}
