package greedy

import (
	"context"
	"errors"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/dp"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
)

func TestGreedyProducesValidPlans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		edges []query.Edge
	}{
		{"chain-8", 8, query.ChainEdges(8)},
		{"star-9", 9, query.StarEdges(9)},
		{"star-chain-12", 12, query.StarChainEdges(12, 8)},
		{"clique-6", 6, query.CliqueEdges(6)},
	} {
		q := testutil.MustQuery(testutil.Catalog(tc.n), tc.n, tc.edges, nil)
		p, stats, err := Optimize(q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid plan: %v", tc.name, err)
		}
		if p.Rels != bits.Full(tc.n) {
			t.Fatalf("%s: covers %v", tc.name, p.Rels)
		}
		if stats.PlansCosted <= 0 || stats.Elapsed <= 0 {
			t.Errorf("%s: stats = %+v", tc.name, stats)
		}
	}
}

func TestGreedyNeverBeatsDP(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := testutil.Catalog(10)
		_ = cfg
		q := testutil.MustQuery(testutil.Catalog(10), 10, query.StarChainEdges(10, 6), nil)
		optimal, _, err := dp.Optimize(q, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := Optimize(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Cost < optimal.Cost*(1-1e-9) {
			t.Fatalf("greedy %g beat DP %g", p.Cost, optimal.Cost)
		}
	}
}

func TestGreedyIsCheap(t *testing.T) {
	q := testutil.MustQuery(testutil.Catalog(12), 12, query.StarEdges(12), nil)
	_, gooStats, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, dpStats, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gooStats.PlansCosted*10 > dpStats.PlansCosted {
		t.Errorf("greedy costed %d plans, DP %d — not cheap enough",
			gooStats.PlansCosted, dpStats.PlansCosted)
	}
}

func TestGreedyOrdered(t *testing.T) {
	cat := testutil.Catalog(8)
	q := testutil.MustQuery(cat, 8, query.StarEdges(8), &query.OrderSpec{Rel: 0, Col: 0})
	p, _, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ec := q.OrderEqClass(); ec >= 0 && p.Order != ec {
		t.Errorf("ordered greedy delivers order %d, want %d", p.Order, ec)
	}
}

// TestGreedyObsParity locks in stats/obs parity with the enumeration
// engines: pairs counters populated, optimize metrics under the GOO label,
// and a span child attached when the context carries a trace — routed
// fast-path requests must not appear as blank rows in trace summaries.
func TestGreedyObsParity(t *testing.T) {
	ob := obs.New()
	rec := span.NewRecorder(span.RecorderOptions{})
	root := span.New("request")
	rec.Start(root)
	ctx := span.NewContext(context.Background(), root)

	q := testutil.MustQuery(testutil.Catalog(10), 10, query.StarEdges(10), nil)
	_, stats, err := Optimize(q, Options{Ctx: ctx, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PairsConsidered <= 0 || stats.PairsConnected <= 0 {
		t.Errorf("pairs counters not populated: %+v", stats)
	}
	if stats.PairsConnected > stats.PairsConsidered {
		t.Errorf("connected %d > considered %d", stats.PairsConnected, stats.PairsConsidered)
	}
	if got := ob.Counter(obs.Label(obs.MOptimizations, "tech", "GOO")).Value(); got != 1 {
		t.Errorf("optimizations{tech=GOO} = %d, want 1", got)
	}
	if n := ob.Histogram(obs.Label(obs.MOptimizeSeconds, "tech", "GOO"), obs.SecondsBuckets).Count(); n != 1 {
		t.Errorf("optimize-seconds{tech=GOO} observations = %d, want 1", n)
	}

	rec.Finish(root, 200)
	d := rec.Snapshot()
	if len(d.Recent) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(d.Recent))
	}
	found := false
	for _, s := range d.Recent[0].Root.Children {
		if s.Name == "goo.order" {
			found = true
			if got := s.Counters["pairs_considered"]; got != stats.PairsConsidered {
				t.Errorf("span pairs_considered = %d, stats say %d", got, stats.PairsConsidered)
			}
		}
	}
	if !found {
		t.Error("no goo.order span recorded under the request trace")
	}
}

// TestGreedyCanceled: a canceled context aborts the merge loop with
// ErrCanceled, same contract as the enumeration engines.
func TestGreedyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := testutil.MustQuery(testutil.Catalog(10), 10, query.StarEdges(10), nil)
	_, stats, err := Optimize(q, Options{Ctx: ctx})
	if !errors.Is(err, dp.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not populated on cancellation")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	q := testutil.MustQuery(testutil.Catalog(10), 10, query.StarEdges(10), nil)
	a, _, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Errorf("greedy non-deterministic: %g vs %g", a.Cost, b.Cost)
	}
}
