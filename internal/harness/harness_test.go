package harness

import (
	"fmt"
	"strings"
	"testing"

	"sdpopt/internal/memo"
	"sdpopt/internal/workload"
)

// quickCfg keeps harness tests fast: few instances and a small budget so
// infeasibility paths trigger on small queries too.
func quickCfg() Config {
	return Config{Instances: 2, Seed: 11}
}

func TestRunBatchBasics(t *testing.T) {
	cat := workload.PaperSchema()
	qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: workload.StarChain, NumRelations: 10, Seed: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	budget := memo.DefaultBudget
	b, err := RunBatch("Star-Chain-10", qs, []Technique{
		TechDP(budget), TechIDP(7, budget), TechIDP(4, budget), TechSDP(budget),
	}, "DP")
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(b.Outcomes) != 4 {
		t.Fatalf("outcomes = %d", len(b.Outcomes))
	}
	dpOut := b.Outcome("DP")
	if dpOut == nil || !dpOut.Reference || !dpOut.Feasible {
		t.Fatalf("DP outcome = %+v", dpOut)
	}
	if dpOut.Summary.PctIdeal != 100 || dpOut.Summary.Rho != 1 {
		t.Errorf("reference summary = %+v", dpOut.Summary)
	}
	for _, name := range []string{"IDP(7)", "IDP(4)", "SDP"} {
		o := b.Outcome(name)
		if o == nil || !o.Feasible {
			t.Fatalf("%s missing or infeasible", name)
		}
		if o.Summary.Rho < 1-1e-9 {
			t.Errorf("%s rho = %g < 1", name, o.Summary.Rho)
		}
		if o.MeanCosted <= 0 || o.PeakMemMB <= 0 {
			t.Errorf("%s overheads not recorded: %+v", name, o)
		}
	}
	// SDP costs fewer plans than DP on a hub workload.
	if b.Outcome("SDP").MeanCosted >= b.Outcome("DP").MeanCosted {
		t.Error("SDP did not reduce plans costed")
	}
	qt := b.QualityTable()
	for _, frag := range []string{"Star-Chain-10", "DP", "SDP", "rho"} {
		if !strings.Contains(qt, frag) {
			t.Errorf("quality table missing %q:\n%s", frag, qt)
		}
	}
	ot := b.OverheadTable()
	if !strings.Contains(ot, "Memory(MB)") || !strings.Contains(ot, "Costing") {
		t.Errorf("overhead table malformed:\n%s", ot)
	}
}

func TestRunBatchInfeasibleTechnique(t *testing.T) {
	cat := workload.PaperSchema()
	qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: 12, Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A 2 MB budget kills DP on a 12-star but SDP survives.
	b, err := RunBatch("Star-12", qs, []Technique{
		TechDP(2 << 20), TechSDP(2 << 20),
	}, "SDP")
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	dpOut := b.Outcome("DP")
	if dpOut.Feasible {
		t.Error("DP should be infeasible under 2MB")
	}
	if !strings.Contains(b.QualityTable(), "*") {
		t.Error("quality table missing the * marker")
	}
	if !strings.Contains(b.OverheadTable(), "*") {
		t.Error("overhead table missing the * marker")
	}
	sdpOut := b.Outcome("SDP")
	if !sdpOut.Feasible || sdpOut.Summary.PctIdeal != 100 {
		t.Errorf("SDP reference outcome = %+v", sdpOut)
	}
}

func TestRunBatchValidation(t *testing.T) {
	cat := workload.PaperSchema()
	qs, _ := workload.Instances(workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: 4, Seed: 1}, 1)
	if _, err := RunBatch("x", nil, []Technique{TechDP(0)}, "DP"); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := RunBatch("x", qs, []Technique{TechDP(0)}, "SDP"); err == nil {
		t.Error("unknown reference accepted")
	}
	// Infeasible reference is an error.
	if _, err := RunBatch("x", qs, []Technique{TechDP(1)}, "DP"); err == nil {
		t.Error("infeasible reference accepted")
	}
}

func TestAddInfeasible(t *testing.T) {
	b := &Batch{Graph: "g"}
	b.AddInfeasible("DP")
	if len(b.Outcomes) != 1 || b.Outcomes[0].Feasible {
		t.Fatalf("outcomes = %+v", b.Outcomes)
	}
}

func TestTable22RendersSkylines(t *testing.T) {
	out, err := Table22(quickCfg())
	if err != nil {
		t.Fatalf("Table22: %v", err)
	}
	for _, frag := range []string{"Table 2.2", "RC", "CS", "RS", "hub 1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q:\n%s", frag, out)
		}
	}
	if !strings.Contains(out, "survives") {
		t.Errorf("no survivors rendered:\n%s", out)
	}
}

func TestFigure22Walkthrough(t *testing.T) {
	out, err := Figure22(quickCfg())
	if err != nil {
		t.Fatalf("Figure22: %v", err)
	}
	for _, frag := range []string{"Level 2", "PruneGroup", "Figure 2.3: FV(", "plans costed"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q:\n%s", frag, out)
		}
	}
}

func TestTable23SkylineOptions(t *testing.T) {
	cfg := quickCfg()
	cfg.Instances = 4
	out, err := Table23(cfg)
	if err != nil {
		t.Fatalf("Table23: %v", err)
	}
	for _, frag := range []string{"Opt1", "Opt2", "rho"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q:\n%s", frag, out)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	if len(Registry) < 15 {
		t.Fatalf("registry has %d experiments", len(Registry))
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	e, err := Lookup("tab2.2")
	if err != nil || e.ID != "tab2.2" {
		t.Errorf("Lookup: %v %v", e, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup accepted unknown id")
	}
}

func TestTable21SmallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2.1 runs exhaustive DP")
	}
	// A 16 MB budget moves the star cliff to ~12 relations, keeping the
	// test quick while exercising the * path.
	cfg := Config{Seed: 1, Budget: 16 << 20}
	out, err := Table21(cfg)
	if err != nil {
		t.Fatalf("Table21: %v", err)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("expected a star infeasibility marker:\n%s", out)
	}
	if !strings.Contains(out, "28") {
		t.Errorf("chain-28 row missing:\n%s", out)
	}
}

func TestStarChainBatchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exhaustive DP on star-chain-12")
	}
	cfg := Config{Instances: 2, Seed: 5}
	b, err := cfg.paperBatch(workload.StarChain, 12, 2, true, false)
	if err != nil {
		t.Fatalf("paperBatch star-chain: %v", err)
	}
	if b.Outcome("SDP") == nil || b.Outcome("DP") == nil {
		t.Fatal("missing outcomes")
	}
	for _, o := range b.Outcomes {
		if o.Feasible && o.Summary.Rho < 1-1e-9 {
			t.Errorf("%s rho below 1", o.Name)
		}
	}
}

func TestOrderedStarBatchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exhaustive DP")
	}
	cfg := Config{Instances: 2, Seed: 5}
	b, err := cfg.paperBatch(workload.Star, 10, 2, true, true)
	if err != nil {
		t.Fatalf("paperBatch star ordered: %v", err)
	}
	if got := b.Graph; !strings.HasPrefix(got, "Ord-") {
		t.Errorf("graph label = %q", got)
	}
}

func TestAblationPriorArtSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exhaustive DP on star-chain-15")
	}
	cfg := Config{Instances: 1, Seed: 3}
	out, err := AblationPriorArt(cfg)
	if err != nil {
		t.Fatalf("AblationPriorArt: %v", err)
	}
	for _, name := range []string{"DP", "SDP", "GOO", "II", "SA", "GEQO"} {
		if !strings.Contains(out, name) {
			t.Errorf("missing %s row:\n%s", name, out)
		}
	}
}

func TestBatchCSV(t *testing.T) {
	b := &Batch{Graph: "G"}
	b.Outcomes = append(b.Outcomes, TechOutcome{Name: "DP", Feasible: true, Reference: true})
	b.Outcomes[0].Summary.PctIdeal = 100
	b.Outcomes[0].Summary.Rho = 1
	b.Outcomes[0].Summary.Worst = 1
	b.AddInfeasible("BIG")
	csv := b.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "graph,technique,feasible") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(csv, "G,BIG,false") {
		t.Errorf("infeasible row missing:\n%s", csv)
	}
	if !strings.Contains(csv, "G,DP,true,100.0") {
		t.Errorf("DP row missing:\n%s", csv)
	}
}

func TestRunBatchWorkersMatchesSerial(t *testing.T) {
	cat := workload.PaperSchema()
	qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: workload.StarChain, NumRelations: 9, Seed: 13}, 6)
	if err != nil {
		t.Fatal(err)
	}
	budget := memo.DefaultBudget
	techs := func() []Technique {
		return []Technique{TechDP(budget), TechIDP(7, budget), TechSDP(budget)}
	}
	serial, err := RunBatch("g", qs, techs(), "DP")
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunBatchWorkers("g", qs, techs(), "DP", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Outcomes {
		s, p := serial.Outcomes[i], parallel.Outcomes[i]
		if s.Name != p.Name || s.Feasible != p.Feasible {
			t.Fatalf("outcome %d metadata differs", i)
		}
		if len(s.Ratios) != len(p.Ratios) {
			t.Fatalf("%s: ratios %d vs %d", s.Name, len(s.Ratios), len(p.Ratios))
		}
		for j := range s.Ratios {
			if s.Ratios[j] != p.Ratios[j] {
				t.Fatalf("%s ratio %d: %g vs %g", s.Name, j, s.Ratios[j], p.Ratios[j])
			}
		}
		if s.Summary.Rho != p.Summary.Rho {
			t.Fatalf("%s rho differs: %g vs %g", s.Name, s.Summary.Rho, p.Summary.Rho)
		}
	}
}

func TestRunBatchWorkersInfeasibleTech(t *testing.T) {
	cat := workload.PaperSchema()
	qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: 12, Seed: 13}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBatchWorkers("g", qs, []Technique{TechDP(2 << 20), TechSDP(2 << 20)}, "SDP", 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome("DP").Feasible {
		t.Error("DP should be infeasible")
	}
	if !b.Outcome("SDP").Feasible {
		t.Error("SDP should be feasible")
	}
}

func TestExtEstimation(t *testing.T) {
	out, err := ExtEstimation(Config{Instances: 2, Seed: 5})
	if err != nil {
		t.Fatalf("ExtEstimation: %v", err)
	}
	if !strings.Contains(out, "mean |log10 error|") {
		t.Errorf("missing summary line:\n%s", out)
	}
	// The CDF estimate must beat the uniform assumption on skewed data.
	var u, c float64
	if _, err := fmt.Sscanf(out[strings.Index(out, "uniform="):], "uniform=%f cdf=%f", &u, &c); err != nil {
		t.Fatalf("cannot parse summary: %v\n%s", err, out)
	}
	if c >= u {
		t.Errorf("CDF error %g not better than uniform %g", c, u)
	}
}

func TestExtValidateIdenticalMultisets(t *testing.T) {
	out, err := ExtValidate(Config{Seed: 5})
	if err != nil {
		t.Fatalf("ExtValidate: %v", err)
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("plan results diverged:\n%s", out)
	}
	if got := strings.Count(out, "IDENTICAL"); got != 3 {
		t.Errorf("IDENTICAL rows = %d, want 3:\n%s", got, out)
	}
}

func TestExtLargeQuery(t *testing.T) {
	if e, err := Lookup("ext.large"); err != nil || e.Run == nil {
		t.Fatalf("Lookup(ext.large): %+v, %v", e, err)
	}
	batches, err := Config{Instances: 1, Seed: 11}.largeQueryBatches()
	if err != nil {
		t.Fatal(err)
	}
	byGraph := map[string]*Batch{}
	for _, b := range batches {
		byGraph[b.Graph] = b
	}
	if len(batches) != 3 || byGraph["Star-30"] == nil || byGraph["Clique-25"] == nil || byGraph["Chain-40"] == nil {
		t.Fatalf("batches = %v, want Star-30, Clique-25, Chain-40", batches)
	}
	// Chain-40 is the headline: exhaustive DP on the indexed walk must be
	// feasible beyond 64 relations, and its enumeration must be perfectly
	// tight (every pair considered is connected), while the naive DP-size
	// scan considers an order of magnitude more pairs for the same plan work.
	walk, size := byGraph["Chain-40"].Outcome("DP"), byGraph["Chain-40"].Outcome("DP-size")
	if walk == nil || size == nil || !walk.Feasible || !size.Feasible {
		t.Fatalf("Chain-40 DP feasibility: DP=%+v DP-size=%+v", walk, size)
	}
	if walk.MeanPairsConsidered != walk.MeanPairsConnected {
		t.Errorf("Chain-40 DP considered %v != connected %v", walk.MeanPairsConsidered, walk.MeanPairsConnected)
	}
	if size.MeanPairsConsidered <= 10*walk.MeanPairsConsidered {
		t.Errorf("Chain-40 DP-size considered %v, want >10x DP's %v", size.MeanPairsConsidered, walk.MeanPairsConsidered)
	}
	// Clique-25 records the exhaustive techniques as statically infeasible.
	for _, name := range []string{"DP", "SDP"} {
		if o := byGraph["Clique-25"].Outcome(name); o == nil || o.Feasible {
			t.Errorf("Clique-25 %s = %+v, want an infeasible row", name, o)
		}
	}
}
