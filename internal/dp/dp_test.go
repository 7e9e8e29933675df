package dp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/memo"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
	"sdpopt/internal/workload"
)

func chainQuery(t *testing.T, n int) *query.Query {
	t.Helper()
	return testutil.MustQuery(testutil.Catalog(n), n, query.ChainEdges(n), nil)
}

func starQuery(t *testing.T, n int) *query.Query {
	t.Helper()
	return testutil.MustQuery(testutil.Catalog(n), n, query.StarEdges(n), nil)
}

func TestOptimizeTwoRelations(t *testing.T) {
	q := chainQuery(t, 2)
	p, stats, err := Optimize(q, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if p.Rels != bits.Full(2) {
		t.Errorf("plan covers %v", p.Rels)
	}
	if p.NumJoins() != 1 {
		t.Errorf("NumJoins = %d, want 1", p.NumJoins())
	}
	if stats.PlansCosted == 0 || stats.Memo.ClassesCreated != 3 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestOptimizeSingleRelation(t *testing.T) {
	cat := testutil.Catalog(1)
	q, err := query.New(cat, []int{0}, nil, nil)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	p, _, err := Optimize(q, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !p.Op.IsScan() {
		t.Errorf("plan op = %v, want a scan", p.Op)
	}
}

func TestChainClassCount(t *testing.T) {
	// A chain's connected subsets are its contiguous segments: n(n+1)/2.
	for _, n := range []int{3, 5, 8} {
		q := chainQuery(t, n)
		_, stats, err := Optimize(q, Options{})
		if err != nil {
			t.Fatalf("Optimize chain-%d: %v", n, err)
		}
		want := int64(n * (n + 1) / 2)
		if stats.Memo.ClassesCreated != want {
			t.Errorf("chain-%d classes = %d, want %d", n, stats.Memo.ClassesCreated, want)
		}
	}
}

func TestStarClassCount(t *testing.T) {
	// A star's connected subsets: singletons (n) plus every subset of
	// spokes together with the hub (2^(n-1) - 1 non-empty-with-hub minus
	// the singleton hub already counted): total 2^(n-1) + n - 1.
	for _, n := range []int{3, 5, 7} {
		q := starQuery(t, n)
		_, stats, err := Optimize(q, Options{})
		if err != nil {
			t.Fatalf("Optimize star-%d: %v", n, err)
		}
		want := int64(1<<(n-1)) + int64(n) - 1
		if stats.Memo.ClassesCreated != want {
			t.Errorf("star-%d classes = %d, want %d", n, stats.Memo.ClassesCreated, want)
		}
	}
}

// randomValidPlan builds a random left-deep join over the query using the
// cost model's plan constructors, for optimality cross-checks.
func randomValidPlan(q *query.Query, m *cost.Model, rng *rand.Rand) *plan.Plan {
	n := q.NumRelations()
	// Random connected addition order.
	order := []int{rng.Intn(n)}
	covered := bits.Single(order[0])
	for covered.Len() < n {
		nbrs := q.Neighbors(covered).Slice()
		next := nbrs[rng.Intn(len(nbrs))]
		order = append(order, next)
		covered = covered.Add(next)
	}
	cur := m.AccessPaths(order[0])[0]
	for _, r := range order[1:] {
		rel := m.AccessPaths(r)[0]
		set := cur.Rels.Union(rel.Rels)
		in := cost.JoinInputs{
			Outer: cur, Inner: rel,
			Preds: q.PredsBetween(cur.Rels, rel.Rels),
			Rows:  m.JoinRows(cur.Rels, rel.Rels, cur.Rows, rel.Rows),
		}
		if rng.Intn(2) == 0 {
			in.Outer, in.Inner = in.Inner, in.Outer
		}
		plans := m.JoinPlans(in)
		cur = plans[rng.Intn(len(plans))]
		if cur.Rels != set {
			panic("randomValidPlan: bad rels")
		}
	}
	return cur
}

func TestDPOptimalAgainstRandomPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	topologies := []struct {
		name  string
		edges []query.Edge
		n     int
	}{
		{"chain-5", query.ChainEdges(5), 5},
		{"star-5", query.StarEdges(5), 5},
		{"cycle-5", query.CycleEdges(5), 5},
		{"clique-4", query.CliqueEdges(4), 4},
		{"star-chain-7", query.StarChainEdges(7, 4), 7},
	}
	for _, tc := range topologies {
		q := testutil.MustQuery(testutil.Catalog(tc.n), tc.n, tc.edges, nil)
		best, _, err := Optimize(q, Options{})
		if err != nil {
			t.Fatalf("%s: Optimize: %v", tc.name, err)
		}
		if err := best.Validate(); err != nil {
			t.Fatalf("%s: invalid plan: %v", tc.name, err)
		}
		m := cost.NewModel(q, cost.DefaultParams())
		for trial := 0; trial < 100; trial++ {
			rp := randomValidPlan(q, m, rng)
			if rp.Cost < best.Cost*(1-1e-9) {
				t.Fatalf("%s: random plan (cost %g) beats DP (cost %g):\nrandom: %s\nDP: %s",
					tc.name, rp.Cost, best.Cost,
					rp.Shape(func(i int) string { return q.Relation(i).Name }),
					best.Shape(func(i int) string { return q.Relation(i).Name }))
			}
		}
	}
}

func TestBudgetAbort(t *testing.T) {
	q := starQuery(t, 8)
	_, stats, err := Optimize(q, Options{Budget: 64 * 1024})
	if !errors.Is(err, memo.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if stats.Memo.PeakSimBytes <= 64*1024 {
		t.Errorf("peak %d should exceed the budget it tripped", stats.Memo.PeakSimBytes)
	}
}

// TestSeedLevelBudgetAbort drives the abort into NewEngine's level-1
// seeding, the path where the engine is returned alongside the error.
func TestSeedLevelBudgetAbort(t *testing.T) {
	cat := workload.PaperSchema()
	q, err := workload.One(workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: 5, Seed: 1})
	if err != nil {
		t.Fatalf("One: %v", err)
	}
	_, st, err := Optimize(q, Options{Budget: 1})
	if !errors.Is(err, memo.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed not populated on seed-level abort")
	}
}

// TestCancellation checks a pre-canceled context aborts promptly with
// ErrCanceled.
func TestCancellation(t *testing.T) {
	cat := workload.PaperSchema()
	q, err := workload.One(workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: 12, Seed: 9})
	if err != nil {
		t.Fatalf("One: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Optimize(q, Options{Ctx: ctx}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestHookSeesLevelsInOrder(t *testing.T) {
	q := chainQuery(t, 4)
	var levels []int
	var createdCounts []int
	opts := Options{Hook: func(level int, m *memo.Memo, created []*memo.Class) error {
		levels = append(levels, level)
		createdCounts = append(createdCounts, len(created))
		for _, c := range created {
			if c.Set.Len() != level {
				t.Errorf("level %d created class of size %d", level, c.Set.Len())
			}
			if m.Best(c) == nil {
				t.Errorf("level %d class %v has no best plan", level, c.Set)
			}
		}
		return nil
	}}
	if _, _, err := Optimize(q, opts); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	wantLevels := []int{1, 2, 3, 4}
	if len(levels) != len(wantLevels) {
		t.Fatalf("hook levels = %v", levels)
	}
	for i := range wantLevels {
		if levels[i] != wantLevels[i] {
			t.Fatalf("hook levels = %v, want %v", levels, wantLevels)
		}
	}
	// Chain-4 creates 3, 2, 1 classes at levels 2, 3, 4.
	want := []int{4, 3, 2, 1}
	for i := range want {
		if createdCounts[i] != want[i] {
			t.Fatalf("created per level = %v, want %v", createdCounts, want)
		}
	}
}

func TestHookPruningAffectsSearch(t *testing.T) {
	q := starQuery(t, 5)
	// Prune all but the first class at level 2: the search must still
	// complete (singletons always remain) and the result stays valid.
	pruned := 0
	opts := Options{Hook: func(level int, m *memo.Memo, created []*memo.Class) error {
		if level == 2 {
			for _, c := range created[1:] {
				m.Remove(c)
				pruned++
			}
		}
		return nil
	}}
	p, stats, err := Optimize(q, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if pruned == 0 {
		t.Fatal("nothing pruned")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if p.Rels != bits.Full(5) {
		t.Errorf("plan covers %v", p.Rels)
	}
	// Pruning must shrink the search relative to full DP.
	_, full, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Memo.ClassesCreated >= full.Memo.ClassesCreated {
		t.Errorf("pruned run created %d classes, full %d", stats.Memo.ClassesCreated, full.Memo.ClassesCreated)
	}
}

func TestHookErrorAborts(t *testing.T) {
	q := chainQuery(t, 4)
	boom := errors.New("boom")
	_, _, err := Optimize(q, Options{Hook: func(level int, m *memo.Memo, created []*memo.Class) error {
		if level == 3 {
			return boom
		}
		return nil
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestOrderByUsesInterestingOrder(t *testing.T) {
	cat := testutil.Catalog(3)
	edges := query.ChainEdges(3)
	// Order by relation 0's join column with relation 1 — a join column, so
	// an equivalence-class order.
	q := testutil.MustQuery(cat, 3, edges, &query.OrderSpec{Rel: 0, Col: 0})
	if q.OrderEqClass() < 0 {
		t.Fatal("fixture: order column is not a join column")
	}
	p, _, err := Optimize(q, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if p.Order != q.OrderEqClass() {
		t.Errorf("final order = %d, want %d", p.Order, q.OrderEqClass())
	}
	// The ordered result can never beat the unordered optimum.
	qu := testutil.MustQuery(cat, 3, edges, nil)
	pu, _, err := Optimize(qu, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost < pu.Cost {
		t.Errorf("ordered cost %g < unordered %g", p.Cost, pu.Cost)
	}
}

func TestOrderByNonJoinColumnAlwaysSorts(t *testing.T) {
	cat := testutil.Catalog(3)
	// Column 20 participates in no join.
	q := testutil.MustQuery(cat, 3, query.ChainEdges(3), &query.OrderSpec{Rel: 1, Col: 20})
	p, _, err := Optimize(q, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if p.Op != plan.Sort {
		t.Errorf("final op = %v, want Sort", p.Op)
	}
}

func TestCompoundLeaves(t *testing.T) {
	q := chainQuery(t, 4)
	m := cost.NewModel(q, cost.DefaultParams())
	// Pre-join relations 0 and 1 into a compound leaf, as IDP does.
	a := m.AccessPaths(0)[0]
	b := m.AccessPaths(1)[0]
	in := cost.JoinInputs{Outer: a, Inner: b, Preds: q.PredsBetween(a.Rels, b.Rels),
		Rows: m.JoinRows(a.Rels, b.Rels, a.Rows, b.Rows)}
	compound := m.JoinPlans(in)[0]
	leaves := []Leaf{
		{Set: bits.Of(0, 1), Plans: []*plan.Plan{compound}},
		{Set: bits.Single(2)},
		{Set: bits.Single(3)},
	}
	e, err := NewEngine(q, leaves, Options{Model: m})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Run(e.NumLeaves()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p, err := e.Finalize()
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if p.Rels != bits.Full(4) {
		t.Errorf("plan covers %v", p.Rels)
	}
	// The compound leaf must appear as a subtree.
	found := false
	var walk func(*plan.Plan)
	walk = func(pl *plan.Plan) {
		if pl == nil {
			return
		}
		if pl == compound {
			found = true
		}
		walk(pl.Left)
		walk(pl.Right)
	}
	walk(p)
	if !found {
		t.Error("committed compound plan not part of the final plan")
	}
}

func TestNewEngineValidatesLeaves(t *testing.T) {
	q := chainQuery(t, 3)
	cases := map[string][]Leaf{
		"empty leaf":          {{Set: bits.Set{}}, {Set: bits.Of(0, 1, 2), Plans: []*plan.Plan{{}}}},
		"overlap":             {{Set: bits.Of(0, 1), Plans: []*plan.Plan{{}}}, {Set: bits.Of(1, 2), Plans: []*plan.Plan{{}}}},
		"union not connected": {{Set: bits.Single(0)}, {Set: bits.Single(2)}},
		"multi w/o plans":     {{Set: bits.Of(0, 1)}, {Set: bits.Single(2)}},
	}
	for name, leaves := range cases {
		if _, err := NewEngine(q, leaves, Options{}); err == nil {
			t.Errorf("%s: NewEngine accepted bad leaves", name)
		}
	}
	// Leaves need not cover the query: a connected subset (IDP2's subtree)
	// runs to its own top level.
	e, err := NewEngine(q, []Leaf{{Set: bits.Single(1)}, {Set: bits.Single(2)}}, Options{})
	if err != nil {
		t.Fatalf("connected subset rejected: %v", err)
	}
	if err := e.Run(e.NumLeaves()); err != nil {
		t.Fatal(err)
	}
	if c := e.Memo.Get(bits.Of(1, 2)); c == nil || e.Memo.Best(c) == nil {
		t.Error("no plan for the subset's relations")
	}
}

func TestFinalizeBeforeCompletionFails(t *testing.T) {
	q := chainQuery(t, 4)
	e, err := NewEngine(q, BaseLeaves(q), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Finalize(); err == nil {
		t.Error("Finalize succeeded before reaching the top level")
	}
}

func TestStatsElapsedAndCosted(t *testing.T) {
	q := chainQuery(t, 6)
	_, stats, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not measured")
	}
	if stats.PlansCosted <= 0 {
		t.Error("PlansCosted not counted")
	}
	if stats.Memo.PeakSimBytes <= 0 {
		t.Error("PeakSimBytes not tracked")
	}
}

// Property: DP's optimum is monotone under query growth — adding one more
// relation to a chain can only increase (or keep) the total cost, since the
// larger query strictly contains the smaller one's work.
func TestChainCostMonotone(t *testing.T) {
	prev := 0.0
	for n := 2; n <= 8; n++ {
		q := chainQuery(t, n)
		p, _, err := Optimize(q, Options{})
		if err != nil {
			t.Fatalf("chain-%d: %v", n, err)
		}
		if p.Cost < prev {
			t.Errorf("chain-%d cost %g below chain-%d cost %g", n, p.Cost, n-1, prev)
		}
		prev = p.Cost
	}
}

func TestLeftDeepOnly(t *testing.T) {
	q := testutil.MustQuery(testutil.Catalog(8), 8, query.StarChainEdges(8, 5), nil)
	full, fullStats, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld, ldStats, err := Optimize(q, Options{LeftDeepOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.Validate(); err != nil {
		t.Fatal(err)
	}
	// Left-deep is a subset of the bushy space: never cheaper, same class
	// coverage, fewer plans costed.
	if ld.Cost < full.Cost*(1-1e-9) {
		t.Errorf("left-deep %g beats bushy %g", ld.Cost, full.Cost)
	}
	if ldStats.Memo.ClassesCreated != fullStats.Memo.ClassesCreated {
		t.Errorf("left-deep classes %d != bushy %d — coverage lost",
			ldStats.Memo.ClassesCreated, fullStats.Memo.ClassesCreated)
	}
	if ldStats.PlansCosted >= fullStats.PlansCosted {
		t.Errorf("left-deep costed %d plans, bushy %d", ldStats.PlansCosted, fullStats.PlansCosted)
	}
	// Every join in the left-deep plan has a scan on one side (modulo the
	// indexed-inner shape whose Right is a scan by construction).
	var walk func(p *plan.Plan) bool
	walk = func(p *plan.Plan) bool {
		if p == nil || p.Op.IsScan() {
			return true
		}
		if p.Op == plan.Sort {
			return walk(p.Left)
		}
		leafSide := p.Left.Rels.Len() == 1 || p.Right.Rels.Len() == 1
		return leafSide && walk(p.Left) && walk(p.Right)
	}
	if !walk(ld) {
		t.Errorf("left-deep plan has a bushy join:\n%s", ld.Shape(func(i int) string { return q.Relation(i).Name }))
	}
}
