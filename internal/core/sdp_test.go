package core

import (
	"errors"
	"strings"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/catalog"
	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
)

func fixture(t *testing.T, n int, edges []query.Edge, order *query.OrderSpec) *query.Query {
	t.Helper()
	return testutil.MustQuery(testutil.Catalog(n), n, edges, order)
}

// testutilCatalogCfg builds an n-relation catalog with a custom seed so
// quality checks see varied statistics.
func testutilCatalogCfg(n int, seed int64) *catalog.Catalog {
	cfg := catalog.DefaultConfig()
	cfg.NumRelations = n
	cfg.Seed = seed
	return catalog.MustSynthetic(cfg)
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Partitioning != RootHub || o.Skyline != Option2 || o.Scope != Local {
		t.Errorf("DefaultOptions = %+v", o)
	}
}

func TestEnumStrings(t *testing.T) {
	if RootHub.String() != "RootHub" || ParentHub.String() != "ParentHub" {
		t.Error("Partitioning names")
	}
	if Option1.String() != "Option1" || Option2.String() != "Option2" || StrongSkyline.String() != "StrongSkyline" {
		t.Error("SkylineOption names")
	}
	if Local.String() != "Local" || Global.String() != "Global" {
		t.Error("Scope names")
	}
}

func TestMatchesDPOnTinyQueries(t *testing.T) {
	// With n ≤ 4, every level is 1, N-2 or N-1: SDP must be exactly DP.
	for _, tc := range []struct {
		name  string
		n     int
		edges []query.Edge
	}{
		{"chain-3", 3, query.ChainEdges(3)},
		{"chain-4", 4, query.ChainEdges(4)},
		{"star-4", 4, query.StarEdges(4)},
		{"clique-4", 4, query.CliqueEdges(4)},
	} {
		q := fixture(t, tc.n, tc.edges, nil)
		want, wantStats, err := dp.Optimize(q, dp.Options{})
		if err != nil {
			t.Fatalf("%s DP: %v", tc.name, err)
		}
		got, gotStats, err := Optimize(q, DefaultOptions())
		if err != nil {
			t.Fatalf("%s SDP: %v", tc.name, err)
		}
		if got.Cost != want.Cost {
			t.Errorf("%s: SDP cost %g != DP %g", tc.name, got.Cost, want.Cost)
		}
		if gotStats.Memo.ClassesCreated != wantStats.Memo.ClassesCreated {
			t.Errorf("%s: SDP classes %d != DP %d", tc.name, gotStats.Memo.ClassesCreated, wantStats.Memo.ClassesCreated)
		}
	}
}

func TestNoPruningOnChainsAndCycles(t *testing.T) {
	// "With SDP, there is no pruning at all for a chain or cycle query."
	for _, tc := range []struct {
		name  string
		n     int
		edges []query.Edge
	}{
		{"chain-10", 10, query.ChainEdges(10)},
		{"cycle-9", 9, query.CycleEdges(9)},
	} {
		q := fixture(t, tc.n, tc.edges, nil)
		want, wantStats, err := dp.Optimize(q, dp.Options{})
		if err != nil {
			t.Fatalf("%s DP: %v", tc.name, err)
		}
		var trace Trace
		opts := DefaultOptions()
		opts.Trace = &trace
		got, gotStats, err := Optimize(q, opts)
		if err != nil {
			t.Fatalf("%s SDP: %v", tc.name, err)
		}
		if got.Cost != want.Cost {
			t.Errorf("%s: SDP cost %g != DP %g", tc.name, got.Cost, want.Cost)
		}
		if gotStats.Memo.ClassesCreated != wantStats.Memo.ClassesCreated {
			t.Errorf("%s: classes %d != %d", tc.name, gotStats.Memo.ClassesCreated, wantStats.Memo.ClassesCreated)
		}
		for _, lt := range trace.Levels {
			if len(lt.Pruned) > 0 {
				t.Errorf("%s: pruning happened at level %d", tc.name, lt.Level)
			}
		}
	}
}

func TestPrunesStarsAndNeverBeatsDP(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		edges []query.Edge
	}{
		{"star-9", 9, query.StarEdges(9)},
		{"star-11", 11, query.StarEdges(11)},
		{"star-chain-10", 10, query.StarChainEdges(10, 6)},
		{"clique-7", 7, query.CliqueEdges(7)},
	} {
		q := fixture(t, tc.n, tc.edges, nil)
		optimal, dpStats, err := dp.Optimize(q, dp.Options{})
		if err != nil {
			t.Fatalf("%s DP: %v", tc.name, err)
		}
		p, stats, err := Optimize(q, DefaultOptions())
		if err != nil {
			t.Fatalf("%s SDP: %v", tc.name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid plan: %v", tc.name, err)
		}
		if p.Rels != bits.Full(tc.n) {
			t.Fatalf("%s: plan covers %v", tc.name, p.Rels)
		}
		if p.Cost < optimal.Cost*(1-1e-9) {
			t.Errorf("%s: SDP %g beats DP %g", tc.name, p.Cost, optimal.Cost)
		}
		// Hub topologies must show a real pruning effect.
		if stats.Memo.ClassesCreated >= dpStats.Memo.ClassesCreated {
			t.Errorf("%s: SDP created %d classes, DP %d — no pruning",
				tc.name, stats.Memo.ClassesCreated, dpStats.Memo.ClassesCreated)
		}
		if stats.PlansCosted >= dpStats.PlansCosted {
			t.Errorf("%s: SDP costed %d plans, DP %d", tc.name, stats.PlansCosted, dpStats.PlansCosted)
		}
	}
}

func TestTraceExample9Level2(t *testing.T) {
	// Figure 2.1/2.2: hubs are relations 1 and 7 (indexes 0 and 6). At
	// level 2 the PruneGroup is every pair containing one of them; pairs
	// like 56 (indexes {4,5}) are free.
	q := fixture(t, 9, query.Example9Edges(), nil)
	var trace Trace
	opts := DefaultOptions()
	opts.Trace = &trace
	if _, _, err := Optimize(q, opts); err != nil {
		t.Fatalf("SDP: %v", err)
	}
	if len(trace.Levels) == 0 {
		t.Fatal("no trace recorded")
	}
	lvl2 := trace.Levels[0]
	if lvl2.Level != 2 {
		t.Fatalf("first traced level = %d", lvl2.Level)
	}
	inPG := func(s bits.Set) bool {
		for _, x := range lvl2.PruneGroup {
			if x == s {
				return true
			}
		}
		return false
	}
	for _, s := range []bits.Set{bits.Of(0, 1), bits.Of(0, 4), bits.Of(5, 6), bits.Of(6, 7)} {
		if !inPG(s) {
			t.Errorf("pair %v should be in the PruneGroup", s)
		}
	}
	for _, s := range lvl2.FreeGroup {
		if s.Has(0) || s.Has(6) {
			t.Errorf("FreeGroup pair %v contains a hub", s)
		}
	}
	// Partitions are labeled by the two root hubs.
	if _, ok := lvl2.Partitions["hub:1"]; !ok {
		t.Error("missing partition for root hub 1")
	}
	if _, ok := lvl2.Partitions["hub:7"]; !ok {
		t.Error("missing partition for root hub 7")
	}
	// No pruned level at or beyond N-2 = 7.
	for _, lt := range trace.Levels {
		if lt.Level >= 7 {
			t.Errorf("pruning traced at level %d, beyond N-3", lt.Level)
		}
	}
}

func TestPartitioningVariants(t *testing.T) {
	q := fixture(t, 10, query.StarChainEdges(10, 6), nil)
	optimal, _, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []Partitioning{RootHub, ParentHub} {
		opts := DefaultOptions()
		opts.Partitioning = part
		p, _, err := Optimize(q, opts)
		if err != nil {
			t.Fatalf("%v: %v", part, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", part, err)
		}
		if p.Cost < optimal.Cost*(1-1e-9) {
			t.Errorf("%v beats DP", part)
		}
	}
}

func TestSkylineOptionRetention(t *testing.T) {
	// Option 1 (full 3-D skyline) must retain at least as many classes as
	// Option 2 (pairwise union) — Table 2.3's "Option 2 processes about
	// half the JCRs".
	q := fixture(t, 11, query.StarEdges(11), nil)
	run := func(sk SkylineOption) dp.Stats {
		opts := DefaultOptions()
		opts.Skyline = sk
		_, stats, err := Optimize(q, opts)
		if err != nil {
			t.Fatalf("%v: %v", sk, err)
		}
		return stats
	}
	s1 := run(Option1)
	s2 := run(Option2)
	strong := run(StrongSkyline)
	if s2.Memo.ClassesCreated > s1.Memo.ClassesCreated {
		t.Errorf("Option2 created %d classes > Option1 %d", s2.Memo.ClassesCreated, s1.Memo.ClassesCreated)
	}
	// The strong skyline falls back to the full skyline when 2-dominance
	// empties a partition, so it is not strictly comparable to Option2 —
	// only require that it prunes relative to exhaustive DP.
	_, dpStats, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strong.Memo.ClassesCreated >= dpStats.Memo.ClassesCreated {
		t.Errorf("StrongSkyline created %d classes, DP %d — no pruning", strong.Memo.ClassesCreated, dpStats.Memo.ClassesCreated)
	}
}

func TestGlobalScope(t *testing.T) {
	q := fixture(t, 10, query.StarChainEdges(10, 6), nil)
	opts := DefaultOptions()
	opts.Scope = Global
	p, stats, err := Optimize(q, opts)
	if err != nil {
		t.Fatalf("global SDP: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	_, dpStats, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Memo.ClassesCreated >= dpStats.Memo.ClassesCreated {
		t.Error("global pruning had no effect")
	}
	// Global pruning ignores hubs entirely: on a chain it still applies the
	// per-level skyline (local SDP would not) and completes with a valid
	// plan; whether anything is actually pruned depends on the statistics.
	qc := fixture(t, 10, query.ChainEdges(10), nil)
	pc, gStats, err := Optimize(qc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Validate(); err != nil {
		t.Fatal(err)
	}
	_, dpChain, err := dp.Optimize(qc, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gStats.Memo.ClassesCreated > dpChain.Memo.ClassesCreated {
		t.Error("global pruning created more classes than DP")
	}
}

func TestOrderedQueryKeepsOrder(t *testing.T) {
	cat := testutil.Catalog(9)
	// Order by the hub's first join column (a join column by construction).
	q := testutil.MustQuery(cat, 9, query.StarEdges(9), &query.OrderSpec{Rel: 0, Col: 0})
	if q.OrderEqClass() < 0 {
		t.Fatal("fixture: order column not a join column")
	}
	var trace Trace
	opts := DefaultOptions()
	opts.Trace = &trace
	p, _, err := Optimize(q, opts)
	if err != nil {
		t.Fatalf("SDP: %v", err)
	}
	if p.Order != q.OrderEqClass() {
		t.Errorf("final order = %d, want %d", p.Order, q.OrderEqClass())
	}
	// Order partitions must appear in the trace.
	found := false
	for _, lt := range trace.Levels {
		for label := range lt.Partitions {
			if len(label) > 5 && label[:6] == "order:" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no interesting-order partitions traced")
	}
	// The ordered SDP result must not beat ordered DP.
	want, _, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost < want.Cost*(1-1e-9) {
		t.Errorf("ordered SDP %g beats DP %g", p.Cost, want.Cost)
	}
}

func TestBudgetAbort(t *testing.T) {
	q := fixture(t, 12, query.StarEdges(12), nil)
	_, stats, err := Optimize(q, Options{Partitioning: RootHub, Skyline: Option2, Budget: 128 * 1024})
	if !errors.Is(err, memo.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if stats.Memo.PeakSimBytes == 0 {
		t.Error("stats lost on abort")
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not populated on budget abort")
	}
}

func TestDeterministic(t *testing.T) {
	q := fixture(t, 11, query.StarChainEdges(11, 7), nil)
	a, sa, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Optimize(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || sa.Memo.ClassesCreated != sb.Memo.ClassesCreated {
		t.Errorf("SDP non-deterministic: cost %g/%g classes %d/%d",
			a.Cost, b.Cost, sa.Memo.ClassesCreated, sb.Memo.ClassesCreated)
	}
}

func TestSDPQualityOnStarsIsGood(t *testing.T) {
	// The paper's headline: SDP always lands within 2× of optimal on star
	// workloads. Check on a batch of differently-seeded star-9 instances.
	for seed := int64(1); seed <= 10; seed++ {
		cfg := testutilCatalogCfg(9, seed)
		q := testutil.MustQuery(cfg, 9, query.StarEdges(9), nil)
		optimal, _, err := dp.Optimize(q, dp.Options{})
		if err != nil {
			t.Fatalf("seed %d DP: %v", seed, err)
		}
		p, _, err := Optimize(q, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d SDP: %v", seed, err)
		}
		if ratio := p.Cost / optimal.Cost; ratio > 2 {
			t.Errorf("seed %d: SDP/DP cost ratio = %.3f, want ≤ 2", seed, ratio)
		}
	}
}

func TestTraceString(t *testing.T) {
	q := fixture(t, 9, query.Example9Edges(), nil)
	var trace Trace
	opts := DefaultOptions()
	opts.Trace = &trace
	if _, _, err := Optimize(q, opts); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	for _, frag := range []string{"Level 2:", "PruneGroup=", "partition hub:1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace rendering missing %q:\n%s", frag, out)
		}
	}
}
