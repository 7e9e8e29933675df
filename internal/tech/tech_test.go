package tech

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sdpopt/internal/cost"
	"sdpopt/internal/plan"
	"sdpopt/internal/workload"
)

// TestPlanInvariants holds every table entry to three checks on generated
// queries of four topologies: the tree is structurally valid, every relation
// is exactly one leaf, and re-costing the tree from scratch reproduces its
// cost bit for bit.
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
				if rc := cost.NewModel(q, cost.DefaultParams()).Recost(p); rc.Cost != p.Cost {
					t.Errorf("%s: recost %v != plan cost %v", label, rc.Cost, p.Cost)
				}
			}
		}
	}
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
