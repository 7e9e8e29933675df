package memo

import (
	"math/rand"
	"slices"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/plan"
)

// streamModel is the cost model of a 3-relation indexed chain.
func streamModel() *cost.Model {
	return cost.NewModel(indexedChain(3), cost.DefaultParams())
}

// streamMemo returns a memo on model whose level 1 holds the access paths of
// relations 0 and 1 — the inputs of candStream's candidates — and an empty
// class {0, 1} to offer candidates to. Every such memo numbers the input
// slots alike, so one candidate stream is valid in all of them.
func streamMemo(t *testing.T, model *cost.Model) (*Memo, *Class) {
	t.Helper()
	m := New(0)
	m.Model = model
	for r := 0; r < 2; r++ {
		s := bits.Single(r)
		c, err := m.NewClass(s, 1, model.SetRows(s), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range model.AccessPaths(r) {
			if _, err := m.AddPlan(c, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := m.NewClass(bits.Of(0, 1), 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

// candStream returns a random stream of join candidates over streamMemo's
// level-1 paths, with the model that costs them. Costs come from a handful of
// values so exact ties are common, and the operators, inputs, orders and
// merge inputs' costs vary so those ties are decided by plan.Compare's
// structural order: merge joins with zero, one or two sorts, indexed nested
// loops, ordered and unordered candidates over few order classes — and so a
// new Best displacing the ordered path of its order.
func candStream(t *testing.T, rng *rand.Rand, n int) (*cost.Model, []cost.JoinCand) {
	t.Helper()
	model := streamModel()
	m, _ := streamMemo(t, model)
	var inputs [2][]cost.Input
	for r := range inputs {
		inputs[r] = m.AppendInputs(nil, m.Get(bits.Single(r)))
	}
	ops := []plan.Op{plan.NestLoop, plan.HashJoin, plan.MergeJoin, plan.IndexNestLoop}
	out := make([]cost.JoinCand, n)
	for k := range out {
		side := rng.Intn(2)
		c := cost.JoinCand{
			Outer: inputs[side][rng.Intn(len(inputs[side]))].Ref,
			Inner: inputs[1-side][rng.Intn(len(inputs[1-side]))].Ref,
			Rows:  10,
			Cost:  float64(1 + rng.Intn(6)),
			Order: rng.Intn(4) - 1, // NoOrder, 0, 1, 2
			Op:    ops[rng.Intn(len(ops))],
		}
		if c.Op == plan.MergeJoin {
			c.OuterCost, c.InnerCost = float64(rng.Intn(3)), float64(rng.Intn(3))
		}
		out[k] = c
	}
	return model, out
}

// tree builds candidate c over m's paths, as the memo would build it.
func tree(m *Memo, c cost.JoinCand) *plan.Plan {
	return m.Model.BuildJoin(c, m.build(c.Outer), m.build(c.Inner))
}

// admits snapshots c's admission bar and tests a candidate against it.
func admits(m *Memo, c *Class, cst float64, order int) bool {
	var b cost.Bar
	m.Bar(c, &b)
	return b.Admits(cst, order)
}

// offerCand offers jc to c and returns the retained-path delta.
func offerCand(t *testing.T, m *Memo, c *Class, jc cost.JoinCand) (int, bool) {
	t.Helper()
	before := m.Stats.PathsRetained
	kept, err := m.AddCand(c, jc)
	if err != nil {
		t.Fatal(err)
	}
	return int(m.Stats.PathsRetained - before), kept
}

// retained lists c's best slot and its ordered slots, by value.
func retained(m *Memo, c *Class) []cost.JoinCand {
	out := []cost.JoinCand{m.paths.at(c.best).JoinCand}
	for s := c.ordered; s != noSlot; s = m.paths.at(s).next {
		out = append(out, m.paths.at(s).JoinCand)
	}
	return out
}

// TestAdmitThenOfferMatchesOfferAll is the contract the join kernel's
// cost → gate → offer loop rests on:
//
//   - skipping every candidate the class's bar does not admit leaves exactly
//     the state offering every candidate leaves — the same best and ordered
//     slots, value for value, and the same summed retained-path delta — and
//     a candidate that is not admitted would have been dropped by offer with
//     delta 0;
//   - a stale bar: gating with a bar snapshotted again only after some of
//     the offers it retained — never after a rejected one — retains the
//     same paths at every step, since it admits a superset of what the
//     current bar admits and offer drops the extra candidates with delta 0;
//   - candidates as slot values against their trees: offering each admitted
//     candidate's built tree whole (AddPlan) instead gives the same path
//     delta at every step and trees plan.Compare finds equal — retention
//     decides on (cost, order) and on ties on the trees the candidates
//     become, and the walk through the slots finds what plan.Compare finds.
//
// Best is checked against the plan.Compare minimum of the stream throughout.
// A last case checks that reading a class by cost and as join inputs
// allocates nothing, and that reading a tree leaves the class open.
func TestAdmitThenOfferMatchesOfferAll(t *testing.T) {
	totalStaleExtra := 0 // candidates admitted only by the stale bar
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model, cands := candStream(t, rng, 60)
		all, allC := streamMemo(t, model)
		admitted, admC := streamMemo(t, model)
		stale, staleC := streamMemo(t, model)
		whole, wholeC := streamMemo(t, model) // offered the admitted candidates' trees
		var staleBar cost.Bar                 // stale's bar, snapshotted after half its retentions
		var allDelta, admittedDelta, staleDelta, skipped, staleExtra int
		var least *plan.Plan // the plan.Compare minimum offered so far
		for n, c := range cands {
			p := tree(all, c)
			admit := admits(all, allC, c.Cost, c.Order)
			staleAdmit := staleBar.Admits(c.Cost, c.Order)
			if admit && !staleAdmit {
				t.Fatalf("seed %d step %d: the current bar admits, the stale one does not", seed, n)
			}
			d, kept := offerCand(t, all, allC, c)
			allDelta += d
			if least == nil || plan.Less(p, least) {
				least = p
			}
			if plan.Compare(all.Best(allC), least) != 0 {
				t.Fatalf("seed %d step %d: Best is not the least plan offered under plan.Compare", seed, n)
			}
			if !admit && (kept || d != 0) {
				t.Fatalf("seed %d step %d: not admitted, but offer kept=%v delta=%d", seed, n, kept, d)
			}
			if admits(admitted, admC, c.Cost, c.Order) != admit || admits(whole, wholeC, c.Cost, c.Order) != admit {
				t.Fatalf("seed %d step %d: the classes disagree on admission", seed, n)
			}
			if staleAdmit {
				d, kept := offerCand(t, stale, staleC, c)
				staleDelta += d
				if !admit {
					staleExtra++
					if kept || d != 0 {
						t.Fatalf("seed %d step %d: admitted only by the stale bar, but offer kept=%v delta=%d", seed, n, kept, d)
					}
				}
				if kept && rng.Intn(2) == 0 {
					stale.Bar(staleC, &staleBar)
				}
			}
			if admit {
				d, _ := offerCand(t, admitted, admC, c)
				admittedDelta += d
				before := whole.Stats.PathsRetained
				if _, err := whole.AddPlan(wholeC, p); err != nil {
					t.Fatal(err)
				}
				if wd := int(whole.Stats.PathsRetained - before); wd != d {
					t.Fatalf("seed %d step %d: path delta %d offering the candidate, %d offering its tree", seed, n, d, wd)
				}
			} else {
				skipped++
			}
			want := retained(all, allC)
			if !slices.Equal(retained(admitted, admC), want) || !slices.Equal(retained(stale, staleC), want) {
				t.Fatalf("seed %d step %d: the retained paths diverged", seed, n)
			}
			if wholeC.BestCost() != allC.BestCost() || len(retained(whole, wholeC)) != len(want) {
				t.Fatalf("seed %d step %d: offering trees retained other paths than offering candidates", seed, n)
			}
		}
		if allDelta != admittedDelta || allDelta != staleDelta || allDelta != all.numPaths(allC) || whole.numPaths(wholeC) != allDelta {
			t.Fatalf("seed %d: path delta %d offering all, %d after admission, %d after stale admission; %d paths retained, %d offering trees",
				seed, allDelta, admittedDelta, staleDelta, all.numPaths(allC), whole.numPaths(wholeC))
		}
		if skipped == 0 {
			t.Fatalf("seed %d: admission never said no; the stream tests nothing", seed)
		}
		totalStaleExtra += staleExtra
		want, got := whole.Paths(wholeC), admitted.Paths(admC)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d trees read from the candidates, %d from the trees", seed, len(got), len(want))
		}
		for i := range want {
			if plan.Compare(got[i], want[i]) != 0 {
				t.Fatalf("seed %d: path %d built into %+v, the tree offered was %+v", seed, i, got[i], want[i])
			}
		}
	}

	if totalStaleExtra == 0 {
		t.Fatal("the stale bar never admitted more than the current one; the stale stream tests nothing")
	}

	// Reads by cost and as join inputs allocate nothing; a tree read leaves
	// the class open to offers.
	rng := rand.New(rand.NewSource(7))
	model, cands := candStream(t, rng, 20)
	m, c := streamMemo(t, model)
	for i, jc := range cands {
		jc.Cost = float64(100 - i) // distinct costs
		offerCand(t, m, c, jc)
	}
	var b cost.Bar
	var ins []cost.Input
	if allocs := testing.AllocsPerRun(20, func() {
		_ = c.FeatureVector()
		m.Bar(c, &b)
		ins = m.AppendInputs(ins[:0], c)
	}); allocs != 0 {
		t.Fatalf("cost-only reads allocate %v objects", allocs)
	}
	if fv := c.FeatureVector(); fv.Cost != 81 {
		t.Fatalf("FeatureVector cost = %v, want 81 (the cheapest offered)", fv.Cost)
	}
	if best := m.Best(c); best == nil || best.Cost != 81 {
		t.Fatalf("Best = %+v, want the cost-81 candidate built", best)
	}
	cheaper := cands[0]
	cheaper.Cost = 50
	if _, kept := offerCand(t, m, c, cheaper); !kept || c.BestCost() != 50 {
		t.Fatalf("offer after a read: kept=%v, best cost %v, want the cost-50 candidate", kept, c.BestCost())
	}
}

// TestAdmitsTiesAndOrders spells out the boundary cases of a class's bar:
// ties are admitted, an ordered candidate is admitted on either criterion,
// and an unordered one only against Best.
func TestAdmitsTiesAndOrders(t *testing.T) {
	m := New(0)
	c, err := m.NewClass(bits.Of(0, 1), 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !admits(m, c, 1e9, plan.NoOrder) {
		t.Error("empty class must admit anything")
	}
	for _, p := range []*plan.Plan{mkPlan(c.Set, 10, plan.NoOrder), mkPlan(c.Set, 20, 1)} {
		if _, err := m.AddPlan(c, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range []struct {
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
		if got := admits(m, c, x.cost, x.order); got != x.want {
			t.Errorf("Admits(%v, %d) = %v, want %v", x.cost, x.order, got, x.want)
		}
	}
}
