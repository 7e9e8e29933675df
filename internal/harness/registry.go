package harness

import "fmt"

// Experiment binds a paper artifact id to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (string, error)
}

// Registry lists every reproducible table and figure, in paper order, plus
// the extra ablations.
var Registry = []Experiment{
	{"tab1.1", "Plan quality, Star-Chain-15 (DP / IDP / SDP)", Table11},
	{"tab1.2", "Optimization overheads, Star-Chain-15", Table12},
	{"fig1.2", "Plan quality vs optimization effort", Figure12},
	{"tab1.3", "Plan quality, scaled Star-Chain-23", Table13},
	{"tab1.4", "Overheads, scaled Star-Chain-23", Table14},
	{"tab2.1", "DP overheads: chain vs star", Table21},
	{"tab2.2", "Worked multi-way skyline pruning example", Table22},
	{"tab2.3", "Skyline Option 1 vs Option 2", Table23},
	{"fig2.2", "SDP iteration walkthrough (Figures 2.2/2.3)", Figure22},
	{"tab3.1", "Star plan quality, 15/20/23 relations", Table31},
	{"tab3.2", "Star overheads, 15/20/23 relations", Table32},
	{"tab3.3", "Maximum star scaleup", Table33},
	{"tab3.4", "Ordered star plan quality", Table34},
	{"tab3.5", "Ordered star-chain plan quality", Table35},
	{"tab3.6", "Local vs global pruning, Star-Chain-20", Table36},
	{"abl.part", "Ablation: root-hub vs parent-hub partitioning", AblationPartitioning},
	{"abl.strong", "Ablation: strong (k-dominant) skyline", AblationStrongSkyline},
	{"abl.idpeval", "Ablation: IDP plan-evaluation functions", AblationIDPEvals},
	{"abl.prior", "Comparison: all optimizer families (DP/IDP/SDP/GOO/II/SA/GEQO)", AblationPriorArt},
	{"abl.idp2", "Ablation: IDP1 vs IDP2 block strategies", AblationIDP2},
	{"ext.topo", "Extension: cycle and clique topologies", ExtTopologies},
	{"ext.tpch", "Extension: TPC-H query shapes (Q2/Q5/Q8/Q9/Q10)", ExtTPCH},
	{"ext.validate", "Extension: executor validation (estimates vs reality)", ExtValidate},
	{"abl.bushy", "Ablation: bushy vs left-deep enumeration", AblationBushy},
	{"ext.esterr", "Extension: filter selectivity estimation accuracy", ExtEstimation},
	{"ext.large", "Extension: queries beyond 64-bit relation sets (Star-30 / Clique-25 / Chain-40)", ExtLargeQuery},
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (try: sdplab list)", id)
}
