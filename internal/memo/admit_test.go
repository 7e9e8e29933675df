package memo

import (
	"math/rand"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/plan"
)

// TestAdmitThenOfferMatchesOfferAll is the contract the join kernel's
// cost → admit → build → offer loop rests on: skipping every candidate the
// path set does not admit leaves exactly the state offering every candidate
// leaves — the same Best and the same ordered plans, pointer for pointer,
// and the same summed retained-path delta — and a candidate that is not
// admitted would have been dropped by offer with delta 0. The streams draw
// costs from a handful of values so exact ties (decided by plan.Compare on
// the Rel field here) are common, mix ordered and unordered candidates over
// few order classes, and so include a new Best displacing the ordered plan
// of its order.
func TestAdmitThenOfferMatchesOfferAll(t *testing.T) {
	set := bits.Of(0, 1)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var all, admitted pathSet
		var allDelta, admittedDelta, skipped int
		for n := 0; n < 60; n++ {
			p := &plan.Plan{
				Op: plan.HashJoin, Rels: set, Rows: 10,
				Cost:  float64(1 + rng.Intn(6)),
				Order: rng.Intn(4) - 1, // NoOrder, 0, 1, 2
				Rel:   rng.Intn(3),     // structural tie-break among equal costs
			}
			admits := all.Admits(p.Cost, p.Order)
			d, kept := all.offer(p)
			allDelta += d
			if !admits && (kept || d != 0) {
				t.Fatalf("seed %d step %d: not admitted, but offer kept=%v delta=%d", seed, n, kept, d)
			}
			if admitted.Admits(p.Cost, p.Order) != admits {
				t.Fatalf("seed %d step %d: the two sets disagree on admission", seed, n)
			}
			if admits {
				d, _ := admitted.offer(p)
				admittedDelta += d
			} else {
				skipped++
			}
			if all.Best != admitted.Best {
				t.Fatalf("seed %d step %d: Best diverged", seed, n)
			}
			if len(all.ordered) != len(admitted.ordered) {
				t.Fatalf("seed %d step %d: %d ordered plans vs %d", seed, n, len(all.ordered), len(admitted.ordered))
			}
			for i := range all.ordered {
				if all.ordered[i] != admitted.ordered[i] {
					t.Fatalf("seed %d step %d: ordered[%d] diverged", seed, n, i)
				}
			}
		}
		if allDelta != admittedDelta || allDelta != all.numPaths() {
			t.Fatalf("seed %d: path delta %d offering all, %d after admission, %d paths retained",
				seed, allDelta, admittedDelta, all.numPaths())
		}
		if skipped == 0 {
			t.Fatalf("seed %d: admission never said no; the stream tests nothing", seed)
		}
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
	ps.offer(mkPlan(set, 10, plan.NoOrder))
	ps.offer(mkPlan(set, 20, 1))
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
