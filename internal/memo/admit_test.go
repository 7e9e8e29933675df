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

// TestAdmitThenOfferMatchesOfferAll is the contract the join kernel's
// cost → admit → offer loop rests on, for both kinds of input:
//
//   - built plans: skipping every candidate the path set does not admit
//     leaves exactly the state offering every candidate leaves — the same
//     Best and the same ordered plans, pointer for pointer, and the same
//     summed retained-path delta — and a candidate that is not admitted
//     would have been dropped by offer with delta 0;
//   - unbuilt candidates: offering the admitted stream to a class as values
//     (Memo.AddCand) and reading the class afterwards gives trees plan.Compare
//     finds equal to those of offering the built plans, with the same path
//     delta at every step — retention decides on (cost, order) and on ties
//     on the trees the candidates become, so building later changes nothing.
//
// Best is checked against the plan.Compare minimum of the stream throughout.
// A last case offers candidates without cost ties and reads the class by cost
// only — FeatureVector, BestCost, Admits — which must build nothing and leave
// the class open; the first tree read closes it.
func TestAdmitThenOfferMatchesOfferAll(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model, cands := candStream(t, rng, 60)
		lazyMemo := New(0)
		lazyMemo.Model = model
		lazy, err := lazyMemo.NewClass(bits.Of(0, 1), 2, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		var all, admitted pathSet
		var allDelta, admittedDelta, skipped int
		var least *plan.Plan // the plan.Compare minimum offered so far
		for n, c := range cands {
			p := model.BuildJoin(c)
			admits := all.Admits(p.Cost, p.Order)
			d, kept := all.offer(path{plan: p}, nil)
			allDelta += d
			if least == nil || plan.Less(p, least) {
				least = p
			}
			if plan.Compare(all.best.plan, least) != 0 {
				t.Fatalf("seed %d step %d: Best is not the least plan offered under plan.Compare", seed, n)
			}
			if !admits && (kept || d != 0) {
				t.Fatalf("seed %d step %d: not admitted, but offer kept=%v delta=%d", seed, n, kept, d)
			}
			if admitted.Admits(p.Cost, p.Order) != admits || lazy.Admits(c.Cost, c.Order) != admits {
				t.Fatalf("seed %d step %d: the sets disagree on admission", seed, n)
			}
			if admits {
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
			if all.best.plan != admitted.best.plan {
				t.Fatalf("seed %d step %d: Best diverged", seed, n)
			}
			if lazy.BestCost() != admitted.best.cost() {
				t.Fatalf("seed %d step %d: lazy Best costs %v, built %v", seed, n, lazy.BestCost(), admitted.best.cost())
			}
			if len(all.ordered) != len(admitted.ordered) || len(lazy.ordered) != len(admitted.ordered) {
				t.Fatalf("seed %d step %d: %d / %d / %d ordered paths", seed, n, len(all.ordered), len(admitted.ordered), len(lazy.ordered))
			}
			for i := range all.ordered {
				if all.ordered[i].plan != admitted.ordered[i].plan {
					t.Fatalf("seed %d step %d: ordered[%d] diverged", seed, n, i)
				}
			}
		}
		if allDelta != admittedDelta || allDelta != all.numPaths() || int(lazyMemo.Stats.PathsRetained) != allDelta {
			t.Fatalf("seed %d: path delta %d offering all, %d after admission, %d offering candidates, %d paths retained",
				seed, allDelta, admittedDelta, lazyMemo.Stats.PathsRetained, all.numPaths())
		}
		if skipped == 0 {
			t.Fatalf("seed %d: admission never said no; the stream tests nothing", seed)
		}
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
		_ = c.Admits(jc.Cost, jc.Order)
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

// TestAdmitsTiesAndOrders spells out the boundary cases: ties are admitted,
// an ordered candidate is admitted on either criterion, and an unordered one
// only against Best.
func TestAdmitsTiesAndOrders(t *testing.T) {
	set := bits.Of(0, 1)
	var ps pathSet
	if !ps.Admits(1e9, plan.NoOrder) {
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
		if got := ps.Admits(c.cost, c.order); got != c.want {
			t.Errorf("Admits(%v, %d) = %v, want %v", c.cost, c.order, got, c.want)
		}
	}
}
