package ce

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/plan"
	"sdpopt/internal/tech"
	"sdpopt/internal/workload"
)

func TestInjectorIdentityAtBandOne(t *testing.T) {
	cat := workload.PaperSchema()
	qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: 9, Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		inj, err := NewInjector(q, nil, 1.0, 99, ModeBoth)
		if err != nil {
			t.Fatal(err)
		}
		base := cost.NewCatalogEstimator(q)
		for i := 0; i < q.NumRelations(); i++ {
			if inj.RelRows(i) != base.RelRows(i) {
				t.Fatalf("band 1 RelRows(%d) = %g, want bit-identical %g", i, inj.RelRows(i), base.RelRows(i))
			}
		}
		for pi := range q.Preds {
			if inj.PredSel(pi) != base.PredSel(pi) {
				t.Fatalf("band 1 PredSel(%d) = %g, want bit-identical %g", pi, inj.PredSel(pi), base.PredSel(pi))
			}
		}
		// And the full optimization is plan-identical.
		p1, st1, err := dp.Optimize(q, dp.Options{Model: cost.NewModel(q, cost.DefaultParams())})
		if err != nil {
			t.Fatal(err)
		}
		p2, st2, err := dp.Optimize(q, dp.Options{Model: cost.NewModelEst(q, cost.DefaultParams(), inj)})
		if err != nil {
			t.Fatal(err)
		}
		if p1.Cost != p2.Cost || st1.PlansCosted != st2.PlansCosted {
			t.Fatalf("band 1 changed the optimization: cost %v vs %v, plans %d vs %d",
				p1.Cost, p2.Cost, st1.PlansCosted, st2.PlansCosted)
		}
	}
}

func TestInjectorDeterministicAndCorrelated(t *testing.T) {
	cat := workload.PaperSchema()
	qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: 6, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	a, err := NewInjector(q, nil, 4, 7, ModeBoth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(q, nil, 4, 7, ModeBoth)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := 0; i < q.NumRelations(); i++ {
		if a.RelRows(i) != b.RelRows(i) {
			t.Fatalf("same seed, different RelRows(%d): %g vs %g", i, a.RelRows(i), b.RelRows(i))
		}
		if a.RelRows(i) != cost.NewCatalogEstimator(q).RelRows(i) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("band 4 injected no relation error at all")
	}
	c, err := NewInjector(q, nil, 4, 8, ModeBoth)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < q.NumRelations(); i++ {
		if a.RelRows(i) != c.RelRows(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical error factors")
	}

	// Correlation contract: the same catalog relation lies identically in a
	// different query over it.
	q2 := qs[1]
	inj2, err := NewInjector(q2, nil, 4, 7, ModeBoth)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < q.NumRelations(); i++ {
		for j := 0; j < q2.NumRelations(); j++ {
			if q.Rels[i] != q2.Rels[j] {
				continue
			}
			fa := a.RelRows(i) / cost.NewCatalogEstimator(q).RelRows(i)
			fb := inj2.RelRows(j) / cost.NewCatalogEstimator(q2).RelRows(j)
			if math.Abs(fa-fb)/fa > 1e-12 {
				t.Fatalf("catalog relation %d lies differently across queries: factor %g vs %g", q.Rels[i], fa, fb)
			}
		}
	}
}

func TestDegradeCatalogDeterministic(t *testing.T) {
	cat := workload.PaperSchema()
	a, err := DegradeCatalog(cat, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DegradeCatalog(cat, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	total := 0
	for i := range a.Rels {
		for j := range a.Rels[i].Cols {
			ca, cb := a.Rels[i].Cols[j], b.Rels[i].Cols[j]
			if ca.StatsLost != cb.StatsLost {
				t.Fatalf("same seed, different loss at rel %d col %d", i, j)
			}
			total++
			if ca.StatsLost {
				lost++
				if ca.NDV != 0 || ca.Skew != 0 {
					t.Fatalf("lost column kept statistics: %+v", ca)
				}
			}
		}
	}
	if lost == 0 || lost == total {
		t.Fatalf("health 0.5 lost %d of %d columns — not degrading", lost, total)
	}
	// The original catalog is untouched.
	for i := range cat.Rels {
		for j := range cat.Rels[i].Cols {
			if cat.Rels[i].Cols[j].StatsLost {
				t.Fatal("DegradeCatalog mutated its input")
			}
		}
	}
	// Health 1 is a faithful copy; health 0 loses everything.
	full, err := DegradeCatalog(cat, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	none, err := DegradeCatalog(cat, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cat.Rels {
		for j := range cat.Rels[i].Cols {
			if full.Rels[i].Cols[j].StatsLost {
				t.Fatal("health 1 lost a column")
			}
			if !none.Rels[i].Cols[j].StatsLost {
				t.Fatal("health 0 kept a column")
			}
		}
	}
}

// TestMirrorQueryFrameIdentical proves the degraded-catalog twin of a query
// keeps the exact frame — relation order, predicate indexing (including the
// implied closure), equivalence classes — so plans cross-cost between the
// two models without remapping.
func TestMirrorQueryFrameIdentical(t *testing.T) {
	cat := workload.PaperSchema()
	qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: workload.StarChain, NumRelations: 9, Seed: 13}, 3)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := DegradeCatalog(cat, 0.3, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		mq, err := MirrorQuery(q, degraded)
		if err != nil {
			t.Fatal(err)
		}
		if len(mq.Rels) != len(q.Rels) || len(mq.Preds) != len(q.Preds) {
			t.Fatalf("frame size changed: %d/%d rels, %d/%d preds",
				len(mq.Rels), len(q.Rels), len(mq.Preds), len(q.Preds))
		}
		for i := range q.Rels {
			if q.Rels[i] != mq.Rels[i] {
				t.Fatalf("relation order changed at %d", i)
			}
		}
		for i := range q.Preds {
			if q.Preds[i] != mq.Preds[i] {
				t.Fatalf("predicate %d changed: %+v vs %+v", i, q.Preds[i], mq.Preds[i])
			}
		}
	}
}

// TestRecostIdentity: re-costing a plan under the model that found it must
// reproduce every Cost and Rows bit for bit, across all techniques and
// operator mixes.
func TestRecostIdentity(t *testing.T) {
	cat := workload.PaperSchema()
	for _, spec := range []workload.Spec{
		{Cat: cat, Topology: workload.Chain, NumRelations: 8, Seed: 21},
		{Cat: cat, Topology: workload.Star, NumRelations: 9, Seed: 21},
		{Cat: cat, Topology: workload.Cycle, NumRelations: 7, Seed: 21, Ordered: true},
	} {
		qs, err := workload.Instances(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			for _, name := range tech.Names() {
				m := cost.NewModel(q, cost.DefaultParams())
				p, _, err := tech.Run(context.Background(), name, q, tech.Options{Model: m})
				if err != nil {
					t.Fatalf("%v/%s: %v", spec.Topology, name, err)
				}
				rc := cost.NewModel(q, cost.DefaultParams()).Recost(p)
				if err := samePlan(p, rc); err != nil {
					t.Errorf("%v/%s: recost drifted: %v", spec.Topology, name, err)
				}
			}
		}
	}
}

// samePlan compares two trees node by node, bit-exact on Cost and Rows.
func samePlan(a, b *plan.Plan) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("shape differs: %v vs %v", a, b)
	}
	if a == nil {
		return nil
	}
	if a.Op != b.Op || a.Rel != b.Rel || a.Order != b.Order || a.Rels != b.Rels {
		return fmt.Errorf("node differs over %v: op %v/%v order %d/%d", a.Rels, a.Op, b.Op, a.Order, b.Order)
	}
	if a.Cost != b.Cost || a.Rows != b.Rows {
		return fmt.Errorf("numbers differ over %v: cost %v/%v rows %v/%v", a.Rels, a.Cost, b.Cost, a.Rows, b.Rows)
	}
	if err := samePlan(a.Left, b.Left); err != nil {
		return err
	}
	return samePlan(a.Right, b.Right)
}

// TestEvaluateSmoke runs a small end-to-end sweep with execution validation
// and asserts the CI reference contract.
func TestEvaluateSmoke(t *testing.T) {
	rep, err := Evaluate(Config{
		Seed:      42,
		Instances: 2,
		Bands:     []float64{1, 4},
		Healths:   []float64{1, 0.5},
		Mode:      ModeBoth,
		Topologies: []TopoSpec{
			{workload.Chain, 6},
			{workload.Star, 7},
		},
		Exec:        true,
		ExecMaxRows: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckReference(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Topologies) != 2 {
		t.Fatalf("got %d topology reports, want 2", len(rep.Topologies))
	}
	for _, tr := range rep.Topologies {
		// 2 healths × 2 bands × 4 techniques.
		if len(tr.Cells) != 16 {
			t.Fatalf("%s: got %d cells, want 16", tr.Graph, len(tr.Cells))
		}
	}
	if rep.Exec == nil || rep.Exec.JoinNodes == 0 {
		t.Fatalf("execution validation missing: %+v", rep.Exec)
	}
	if !rep.Exec.FingerprintsMatch {
		t.Fatal("lying plan and true plan produced different results")
	}
	if s := rep.String(); len(s) == 0 {
		t.Fatal("empty rendering")
	}
}
