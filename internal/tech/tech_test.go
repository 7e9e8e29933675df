package tech

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
	"sdpopt/internal/workload"
)

// TestPlanInvariants holds every table entry to four checks: the tree is
// structurally valid, every relation is exactly one leaf, every join's inputs
// share a predicate (no cartesian product on a connected query graph), and
// re-costing the tree from scratch reproduces its cost bit for bit. The
// queries are the generator's four topologies, and random connected join
// graphs — a random spanning tree plus random extra edges, over random
// relations and join columns of the paper schema, as FuzzCanonSpelling
// generates them — at 2 to 14 relations, with and without an ORDER BY.
func TestPlanInvariants(t *testing.T) {
	cat := workload.PaperSchema()
	for _, name := range Names() {
		for _, topo := range []workload.Topology{workload.Chain, workload.Star, workload.Cycle, workload.StarChain} {
			for seed := int64(1); seed <= 3; seed++ {
				// The third seed adds an ORDER BY, so sort enforcement is
				// covered too.
				spec := workload.Spec{Cat: cat, Topology: topo, NumRelations: 8, Seed: seed, Ordered: seed == 3}
				label := fmt.Sprintf("%s/%v/seed%d", name, topo, seed)
				q, err := workload.One(spec)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkPlan(t, label, name, q)
			}
		}
	}
	for size := 2; size <= 14; size++ {
		for _, ordered := range []bool{false, true} {
			q, err := testutil.RandomQuery(cat, rand.New(rand.NewSource(int64(100*size)+7)), size, ordered)
			if err != nil {
				t.Fatalf("size %d: generated query rejected: %v", size, err)
			}
			for _, name := range Names() {
				checkPlan(t, fmt.Sprintf("%s/random-%d/ordered=%v", name, size, ordered), name, q)
			}
		}
	}
}

// checkPlan optimizes q with the named technique and checks the plan
// invariants TestPlanInvariants lists.
func checkPlan(t *testing.T, label, name string, q *query.Query) {
	t.Helper()
	p, _, err := Run(context.Background(), name, q, Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	leaves := make([]int, q.NumRelations())
	countLeaves(p, leaves)
	for rel, n := range leaves {
		if n != 1 {
			t.Errorf("%s: relation %d is %d leaves, want 1", label, rel, n)
		}
	}
	if q.ConnectedSet(bits.Full(q.NumRelations())) {
		if j := crossJoin(q, p); j != nil {
			t.Errorf("%s: join of %v and %v shares no predicate", label, j.Left.Rels, j.Right.Rels)
		}
	}
	if rc := cost.NewModel(q, cost.DefaultParams()).Recost(p); rc.Cost != p.Cost {
		t.Errorf("%s: recost %v != plan cost %v", label, rc.Cost, p.Cost)
	}
}

// crossJoin returns a join node of p whose two inputs share no predicate of
// q, or nil.
func crossJoin(q *query.Query, p *plan.Plan) *plan.Plan {
	if p == nil {
		return nil
	}
	if p.Op.IsJoin() && !q.Connected(p.Left.Rels, p.Right.Rels) {
		return p
	}
	if j := crossJoin(q, p.Left); j != nil {
		return j
	}
	return crossJoin(q, p.Right)
}

func countLeaves(p *plan.Plan, leaves []int) {
	if p == nil {
		return
	}
	if p.Op.IsScan() {
		leaves[p.Rel]++
		return
	}
	countLeaves(p.Left, leaves)
	countLeaves(p.Right, leaves)
}

func TestRunUnknownTechnique(t *testing.T) {
	q, err := workload.One(workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Chain, NumRelations: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Run(context.Background(), "genetic", q, Options{})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(Names())) {
		t.Errorf("unknown technique error %v does not list %v", err, Names())
	}
}

// TestLevelSpansSumToRun: the per-level telemetry is complete — for DP and
// SDP run under a root span, the "level" spans' classes_created add up to
// the run's Stats.Memo.ClassesCreated and their plans_costed to
// Stats.PlansCosted. The one plan costed outside every level is ORDER BY
// enforcement: Finalize costs at most one sort, so an ordered run may
// exceed its levels' sum by that one plan and an unordered one by none.
func TestLevelSpansSumToRun(t *testing.T) {
	cat := workload.PaperSchema()
	for _, name := range []string{DP, SDP} {
		for _, topo := range []workload.Topology{workload.Chain, workload.Star, workload.Cycle, workload.StarChain} {
			for _, ordered := range []bool{false, true} {
				label := fmt.Sprintf("%s %v ordered=%v", name, topo, ordered)
				q, err := workload.One(workload.Spec{Cat: cat, Topology: topo, NumRelations: 10, Ordered: ordered, Seed: 42})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				root := span.New("run")
				_, st, err := Run(span.NewContext(context.Background(), root), name, q, Options{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				root.Finish()
				var created, costed int64
				var walk func(s *span.SpanJSON)
				walk = func(s *span.SpanJSON) {
					if s.Name == "level" {
						created += s.Int("classes_created")
						costed += s.Int("plans_costed")
					}
					for i := range s.Children {
						walk(&s.Children[i])
					}
				}
				walk(root.Trace().Snapshot().Root)
				if created != st.Memo.ClassesCreated {
					t.Errorf("%s: level spans created %d classes, stats say %d", label, created, st.Memo.ClassesCreated)
				}
				sortCost := int64(0)
				if ordered {
					sortCost = 1
				}
				if d := st.PlansCosted - costed; d < 0 || d > sortCost {
					t.Errorf("%s: stats costed %d plans, level spans %d: %d outside the levels, want at most %d",
						label, st.PlansCosted, costed, d, sortCost)
				}
			}
		}
	}
}
