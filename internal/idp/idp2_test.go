package idp

import (
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/dp"
	"sdpopt/internal/obs"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
)

func TestIDP2ProducesValidPlans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		edges []query.Edge
	}{
		{"chain-10", 10, query.ChainEdges(10)},
		{"star-10", 10, query.StarEdges(10)},
		{"star-chain-12", 12, query.StarChainEdges(12, 8)},
		{"cycle-8", 8, query.CycleEdges(8)},
	} {
		q := fixture(t, tc.n, tc.edges)
		p, stats, err := Optimize2(q, Options{K: 5})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid plan: %v", tc.name, err)
		}
		if p.Rels != bits.Full(tc.n) {
			t.Fatalf("%s: covers %v", tc.name, p.Rels)
		}
		if stats.PlansCosted <= 0 {
			t.Errorf("%s: no plans costed", tc.name)
		}
	}
}

// TestIDP2ReportsPairs: IDP2's subtree re-plans run on the DP engine's
// indexed walk, so its stats and the observer's pair counters carry the
// pairs those runs joined — every one considered is connected.
func TestIDP2ReportsPairs(t *testing.T) {
	q := fixture(t, 12, query.StarChainEdges(12, 8))
	ob := obs.New()
	_, st, err := Optimize2(q, Options{K: 5, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsConnected <= 0 || st.PairsConsidered != st.PairsConnected {
		t.Errorf("IDP2 considered %d pairs, connected %d; want equal and positive", st.PairsConsidered, st.PairsConnected)
	}
	if got := ob.Counter(obs.MPairsConnected).Value(); got != st.PairsConnected {
		t.Errorf("pairs-connected counter %d, stats %d", got, st.PairsConnected)
	}
}

func TestIDP2NeverBeatsDP(t *testing.T) {
	q := fixture(t, 10, query.StarChainEdges(10, 6))
	optimal, _, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 5, 7} {
		p, _, err := Optimize2(q, Options{K: k})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if p.Cost < optimal.Cost*(1-1e-9) {
			t.Errorf("IDP2(%d) %g beats DP %g", k, p.Cost, optimal.Cost)
		}
	}
}

func TestIDP2ImprovesOnGreedyStart(t *testing.T) {
	// The subtree re-optimization pass must never worsen the greedy start;
	// measure that a large K (full re-plan) reaches the DP optimum.
	q := fixture(t, 8, query.StarEdges(8))
	optimal, _, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Optimize2(q, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	// K = n re-optimizes the whole tree exhaustively.
	if p.Cost > optimal.Cost*(1+1e-9) {
		t.Errorf("IDP2(n) cost %g, want DP optimum %g", p.Cost, optimal.Cost)
	}
}

func TestIDP2MonotoneInK(t *testing.T) {
	q := fixture(t, 11, query.StarChainEdges(11, 7))
	small, _, err := Optimize2(q, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := Optimize2(q, Options{K: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Not a theorem (different local optima), but a strong regression
	// smell: the bigger window should not be much worse.
	if big.Cost > small.Cost*1.2 {
		t.Errorf("IDP2(9) cost %g much worse than IDP2(3) %g", big.Cost, small.Cost)
	}
}

func TestIDP2RejectsBadK(t *testing.T) {
	q := fixture(t, 4, query.ChainEdges(4))
	if _, _, err := Optimize2(q, Options{K: 1}); err == nil {
		t.Error("K=1 accepted")
	}
}

func TestIDP2Ordered(t *testing.T) {
	cat := testutil.Catalog(9)
	q := testutil.MustQuery(cat, 9, query.StarEdges(9), &query.OrderSpec{Rel: 0, Col: 0})
	p, _, err := Optimize2(q, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ec := q.OrderEqClass(); ec >= 0 && p.Order != ec {
		t.Errorf("ordered IDP2 delivers order %d, want %d", p.Order, ec)
	}
}

func TestIDP2Deterministic(t *testing.T) {
	q := fixture(t, 12, query.StarEdges(12))
	a, _, err := Optimize2(q, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Optimize2(q, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Errorf("IDP2 non-deterministic: %g vs %g", a.Cost, b.Cost)
	}
}
