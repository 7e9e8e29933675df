package sdpopt_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"sdpopt"
	"sdpopt/internal/tech"
)

// TestTechniquesAreTheTable: the facade's served set is the tech table, and
// the server's request set is that plus "auto".
func TestTechniquesAreTheTable(t *testing.T) {
	if got, want := sdpopt.Techniques(), tech.Names(); !slices.Equal(got, want) {
		t.Errorf("Techniques() = %v, want %v", got, want)
	}
	if got, want := sdpopt.RequestTechniques(), append([]string{"auto"}, tech.Names()...); !slices.Equal(got, want) {
		t.Errorf("RequestTechniques() = %v, want %v", got, want)
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	cat := sdpopt.PaperSchema()
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: cat, Topology: sdpopt.StarChain, NumRelations: 12, Seed: 1,
	}, 3)
	if err != nil {
		t.Fatalf("Instances: %v", err)
	}
	for _, q := range qs {
		optimal, dpStats, err := sdpopt.OptimizeDP(q, sdpopt.DPOptions{Budget: sdpopt.DefaultBudget})
		if err != nil {
			t.Fatalf("OptimizeDP: %v", err)
		}
		heuristic, sdpStats, err := sdpopt.OptimizeSDP(q, sdpopt.SDPOptions())
		if err != nil {
			t.Fatalf("OptimizeSDP: %v", err)
		}
		idpPlan, _, err := sdpopt.OptimizeIDP(q, sdpopt.IDPDefaults())
		if err != nil {
			t.Fatalf("OptimizeIDP: %v", err)
		}
		for _, p := range []*sdpopt.Plan{optimal, heuristic, idpPlan} {
			if err := p.Validate(); err != nil {
				t.Fatalf("invalid plan: %v", err)
			}
		}
		if heuristic.Cost < optimal.Cost*(1-1e-9) || idpPlan.Cost < optimal.Cost*(1-1e-9) {
			t.Fatal("heuristic beats exhaustive DP")
		}
		if sdpStats.PlansCosted >= dpStats.PlansCosted {
			t.Error("SDP did not prune the search")
		}
		exp := sdpopt.Explain(q, heuristic)
		if !strings.Contains(exp, "cost=") || !strings.Contains(exp, "R") {
			t.Errorf("Explain output malformed:\n%s", exp)
		}
		if shape := sdpopt.PlanShape(q, heuristic); !strings.Contains(shape, "⋈") {
			t.Errorf("PlanShape = %q", shape)
		}
	}
}

func TestBudgetSurfacesErrBudget(t *testing.T) {
	cat := sdpopt.PaperSchema()
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: cat, Topology: sdpopt.Star, NumRelations: 13, Seed: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sdpopt.OptimizeDP(qs[0], sdpopt.DPOptions{Budget: 1 << 20})
	if !errors.Is(err, sdpopt.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestHandBuiltQuery(t *testing.T) {
	cfg := sdpopt.DefaultSchemaConfig()
	cfg.NumRelations = 5
	cat, err := sdpopt.NewSchema(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var preds []sdpopt.Pred
	for i, e := range sdpopt.StarEdges(5) {
		preds = append(preds, sdpopt.Pred{LeftRel: e.A, LeftCol: i, RightRel: e.B, RightCol: 0})
	}
	q, err := sdpopt.NewQuery(cat, []int{0, 1, 2, 3, 4}, preds, nil)
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	p, _, err := sdpopt.OptimizeSDP(q, sdpopt.SDPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSDPVariantsViaPublicAPI(t *testing.T) {
	cat := sdpopt.PaperSchema()
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: cat, Topology: sdpopt.Star, NumRelations: 10, Seed: 3,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []sdpopt.SDPConfig{
		{Partitioning: sdpopt.RootHub, Skyline: sdpopt.Option2, Scope: sdpopt.LocalPruning},
		{Partitioning: sdpopt.ParentHub, Skyline: sdpopt.Option1, Scope: sdpopt.LocalPruning},
		{Partitioning: sdpopt.RootHub, Skyline: sdpopt.StrongSkyline, Scope: sdpopt.GlobalPruning},
	} {
		p, _, err := sdpopt.OptimizeSDP(qs[0], opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSDPTraceViaPublicAPI(t *testing.T) {
	cat := sdpopt.PaperSchema()
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: cat, Topology: sdpopt.Star, NumRelations: 9, Seed: 4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tr sdpopt.SDPTrace
	opts := sdpopt.SDPOptions()
	opts.Trace = &tr
	if _, _, err := sdpopt.OptimizeSDP(qs[0], opts); err != nil {
		t.Fatal(err)
	}
	if len(tr.Levels) == 0 {
		t.Error("no trace captured")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := sdpopt.Experiments()
	if len(exps) < 15 {
		t.Fatalf("only %d experiments", len(exps))
	}
	// Run the cheapest experiment end to end through the public API.
	out, err := sdpopt.RunExperiment("fig2.2", sdpopt.ExperimentConfig{Seed: 1})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if !strings.Contains(out, "Figure 2.2") {
		t.Errorf("unexpected output:\n%s", out)
	}
	if _, err := sdpopt.RunExperiment("bogus", sdpopt.ExperimentConfig{}); err == nil {
		t.Error("bogus experiment id accepted")
	}
}

func TestSummarize(t *testing.T) {
	s, err := sdpopt.Summarize([]float64{1, 1.5})
	if err != nil || s.Count != 2 {
		t.Fatalf("Summarize: %+v %v", s, err)
	}
}

func TestAlternativeOptimizerFamilies(t *testing.T) {
	cat := sdpopt.PaperSchema()
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: cat, Topology: sdpopt.StarChain, NumRelations: 10, Seed: 6,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	optimal, _, err := sdpopt.OptimizeDP(q, sdpopt.DPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		name string
		p    *sdpopt.Plan
	}
	var results []result
	gp, _, err := sdpopt.OptimizeGreedy(q, sdpopt.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, result{"GOO", gp})
	ii, _, err := sdpopt.OptimizeRandomized(q, sdpopt.RandomizedOptions{Algorithm: sdpopt.IterativeImprovement, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, result{"II", ii})
	sa, _, err := sdpopt.OptimizeRandomized(q, sdpopt.RandomizedOptions{Algorithm: sdpopt.SimulatedAnnealing, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, result{"SA", sa})
	ga, _, err := sdpopt.OptimizeGenetic(q, sdpopt.GeneticOptions{Seed: 1, Generations: 30})
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, result{"GEQO", ga})
	for _, r := range results {
		if err := r.p.Validate(); err != nil {
			t.Errorf("%s: %v", r.name, err)
		}
		if r.p.Cost < optimal.Cost*(1-1e-9) {
			t.Errorf("%s beat DP: %g vs %g", r.name, r.p.Cost, optimal.Cost)
		}
	}
}

func TestDOTRenderers(t *testing.T) {
	cat := sdpopt.PaperSchema()
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: cat, Topology: sdpopt.Star, NumRelations: 6, Seed: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	if dot := sdpopt.JoinGraphDOT(q); !strings.Contains(dot, "doublecircle") {
		t.Errorf("join graph DOT missing hub marker:\n%s", dot)
	}
	p, _, err := sdpopt.OptimizeSDP(q, sdpopt.SDPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if dot := sdpopt.PlanDOT(q, p); !strings.Contains(dot, "digraph plan") {
		t.Errorf("plan DOT malformed:\n%s", dot)
	}
}

func TestFilteredQueryViaPublicAPI(t *testing.T) {
	cat := sdpopt.PaperSchema()
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: cat, Topology: sdpopt.StarChain, NumRelations: 10,
		FilterFraction: 0.5, Seed: 8,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := sdpopt.OptimizeSDP(qs[0], sdpopt.SDPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	optimal, _, err := sdpopt.OptimizeDP(qs[0], sdpopt.DPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost < optimal.Cost*(1-1e-9) {
		t.Error("SDP beat DP on filtered query")
	}
}

func TestIDP2ViaPublicAPI(t *testing.T) {
	cat := sdpopt.PaperSchema()
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: cat, Topology: sdpopt.Star, NumRelations: 10, Seed: 5,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := sdpopt.IDPDefaults()
	opts.K = 5
	p, _, err := sdpopt.OptimizeIDP2(qs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
