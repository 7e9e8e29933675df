package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sdpopt/internal/bits"
	"sdpopt/internal/catalog"
	"sdpopt/internal/core"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/exec"
	"sdpopt/internal/genetic"
	"sdpopt/internal/idp"
	"sdpopt/internal/memo"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/randomized"
	"sdpopt/internal/skyline"
	"sdpopt/internal/tech"
	"sdpopt/internal/tpch"
	"sdpopt/internal/workload"
)

// paperRows is the paper's comparison set: DP, IDP(7), IDP(4) and SDP.
func paperRows(budget int64) []Technique {
	return []Technique{TechDP(budget), TechIDP(7, budget), TechIDP(4, budget), TechSDP(budget)}
}

// paperBatch runs the paper's comparison set over an n-relation workload
// of the given topology, with DP as reference when refDP is set (otherwise
// SDP, the paper's convention when DP is infeasible).
func (c Config) paperBatch(topo workload.Topology, n, defInstances int, refDP, ordered bool) (*Batch, error) {
	spec := c.schema()
	spec.Topology = topo
	spec.NumRelations = n
	spec.Ordered = ordered
	qs, err := workload.Instances(*spec, c.instances(defInstances))
	if err != nil {
		return nil, err
	}
	techs := paperRows(c.budget())
	ref := "DP"
	if !refDP {
		techs, ref = techs[1:], "SDP"
	}
	graph := fmt.Sprintf("%v-%d", topo, n)
	if ordered {
		graph = "Ord-" + graph
	}
	b, err := RunBatchWorkers(graph, qs, techs, ref, c.workers())
	if err != nil {
		return nil, err
	}
	if !refDP {
		b.AddInfeasible("DP")
	}
	return b, nil
}

// Table11 reproduces Table 1.1: plan quality of DP, IDP and SDP on
// Star-Chain-15.
func Table11(c Config) (string, error) {
	b, err := c.paperBatch(workload.StarChain, 15, 20, true, false)
	if err != nil {
		return "", err
	}
	return "Table 1.1: Plan Quality (Star-Chain-15)\n" + b.QualityTable(), nil
}

// Table12 reproduces Table 1.2: optimization overheads on Star-Chain-15.
func Table12(c Config) (string, error) {
	b, err := c.paperBatch(workload.StarChain, 15, 20, true, false)
	if err != nil {
		return "", err
	}
	return "Table 1.2: Optimization Overheads (Star-Chain-15)\n" + b.OverheadTable(), nil
}

// Figure12 reproduces Figure 1.2: the plan-quality-versus-effort tradeoff
// of DP, IDP(4), IDP(7) and SDP on Star-Chain-15, emitted as plot series
// (one line per technique: time, plans costed, ρ).
func Figure12(c Config) (string, error) {
	b, err := c.paperBatch(workload.StarChain, 15, 20, true, false)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 1.2: Plan Quality (rho) vs Optimization Effort (Star-Chain-15)\n")
	fmt.Fprintf(&sb, "%-8s %14s %14s %8s\n", "Tech", "MeanTime", "PlansCosted", "rho")
	for _, o := range b.Outcomes {
		if !o.Feasible {
			continue
		}
		fmt.Fprintf(&sb, "%-8s %14s %14.0f %8.4f\n", o.Name, wallTime(o.MeanTime, time.Microsecond), o.MeanCosted, o.Summary.Rho)
	}
	sb.WriteString("# knee-of-the-tradeoff: SDP should sit at low effort AND low rho\n")
	return sb.String(), nil
}

// Table13 reproduces Table 1.3: plan quality on the scaled Star-Chain-23,
// with SDP as the reference since DP is infeasible.
func Table13(c Config) (string, error) {
	b, err := c.paperBatch(workload.StarChain, 23, 10, false, false)
	if err != nil {
		return "", err
	}
	return "Table 1.3: Scaled Join Graph Plan Quality (Star-Chain-23, SDP as reference)\n" + b.QualityTable(), nil
}

// Table14 reproduces Table 1.4: overheads on Star-Chain-23.
func Table14(c Config) (string, error) {
	b, err := c.paperBatch(workload.StarChain, 23, 10, false, false)
	if err != nil {
		return "", err
	}
	return "Table 1.4: Scaled Join Graph Overheads (Star-Chain-23)\n" + b.OverheadTable(), nil
}

// Table21 reproduces Table 2.1: exhaustive DP's overheads on pure chains
// versus pure stars as the relation count grows — the observation that
// motivates localized pruning. Stars beyond the feasibility cliff are
// reported with "*".
func Table21(c Config) (string, error) {
	spec := c.schema()
	budget := c.budget()
	var sb strings.Builder
	sb.WriteString("Table 2.1: DP Overheads, Chain vs Star\n")
	fmt.Fprintf(&sb, "%5s %14s %12s %14s %12s\n", "Rels", "ChainTime", "ChainMB", "StarTime", "StarMB")
	starDead := false
	for _, n := range []int{4, 8, 12, 16, 20, 24, 28} {
		chSpec := *spec
		chSpec.Topology = workload.Chain
		chSpec.NumRelations = n
		qc, err := workload.One(chSpec)
		if err != nil {
			return "", err
		}
		_, sc, err := dp.Optimize(qc, dp.Options{Budget: budget})
		if err != nil {
			return "", fmt.Errorf("chain-%d: %w", n, err)
		}
		starCell := fmt.Sprintf("%14s %12s", "-", "-")
		if !starDead {
			stSpec := *spec
			stSpec.Topology = workload.Star
			stSpec.NumRelations = n
			qsr, err := workload.One(stSpec)
			if err != nil {
				return "", err
			}
			_, ss, err := dp.Optimize(qsr, dp.Options{Budget: budget})
			switch {
			case errors.Is(err, memo.ErrBudget):
				starDead = true
				starCell = fmt.Sprintf("%14s %12s", "*", "*")
			case err != nil:
				return "", fmt.Errorf("star-%d: %w", n, err)
			default:
				starCell = fmt.Sprintf("%14s %12.2f", wallTime(ss.Elapsed, time.Microsecond), ss.Memo.PeakMB())
			}
		}
		fmt.Fprintf(&sb, "%5d %14s %12.2f %s\n", n, wallTime(sc.Elapsed, time.Microsecond), sc.Memo.PeakMB(), starCell)
	}
	return sb.String(), nil
}

// Table22 reproduces Table 2.2: the worked multi-way skyline pruning
// example on the Figure 2.1 join graph — the level-2 PruneGroup partition
// of root hub 1, each member's [R,C,S] feature vector, its membership in
// the RC, CS and RS skylines, and the pruning verdict.
func Table22(c Config) (string, error) {
	tr, _, err := c.tracedExample9()
	if err != nil {
		return "", err
	}
	var lvl *core.LevelTrace
	for i := range tr.Levels {
		// The paper's worked example shows a partition of three-relation
		// JCRs (level 3); fall back to the first level with the hub-1
		// partition.
		if _, ok := tr.Levels[i].Partitions["hub:1"]; ok && (lvl == nil || tr.Levels[i].Level == 3) {
			lvl = &tr.Levels[i]
		}
	}
	if lvl == nil {
		return "", fmt.Errorf("harness: no hub-1 partition traced")
	}
	members := lvl.Partitions["hub:1"]
	pts := make([][]float64, len(members))
	for i, s := range members {
		fv := lvl.Features[s]
		pts[i] = []float64{fv.Rows, fv.Cost, fv.Sel}
	}
	survives, masks := skyline.DisjunctivePairwiseMasks(pts, skyline.RCSPairs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2.2: Multi-way Skyline Pruning (level-%d PruneGroup partition on root hub 1)\n", lvl.Level)
	fmt.Fprintf(&sb, "%-14s %34s  %2s %2s %2s  %s\n", "JCR", "[Rows, Cost, Sel]", "RC", "CS", "RS", "verdict")
	yn := func(ok bool) string {
		if ok {
			return "Y"
		}
		return "-"
	}
	for i, s := range members {
		fv := lvl.Features[s]
		verdict := "pruned"
		if survives[i] {
			verdict = "survives"
		}
		fmt.Fprintf(&sb, "%-14s [%12.0f, %12.2f, %8.2e]  %2s %2s %2s  %s\n",
			s, fv.Rows, fv.Cost, fv.Sel, yn(masks[0][i]), yn(masks[1][i]), yn(masks[2][i]), verdict)
	}
	return sb.String(), nil
}

func (c Config) tracedExample9() (*core.Trace, dp.Stats, error) {
	q, err := workload.Example9(c.schema().Cat)
	if err != nil {
		return nil, dp.Stats{}, err
	}
	var tr core.Trace
	opts := core.DefaultOptions()
	opts.Trace = &tr
	opts.Budget = c.budget()
	_, stats, err := core.Optimize(q, opts)
	return &tr, stats, err
}

// Table23 reproduces Table 2.3: skyline Option 1 (full RCS skyline) versus
// Option 2 (disjunctive pairwise) — JCRs processed and plan quality ρ —
// over instances of the Figure 2.1 example topology, plus a star workload
// whose partitions are large enough for the two options to separate.
func Table23(c Config) (string, error) {
	budget := c.budget()
	opt1 := core.DefaultOptions()
	opt1.Skyline = core.Option1

	var sb strings.Builder
	sb.WriteString("Table 2.3: Performance of Skyline Options\n")
	for _, wl := range []struct {
		label string
		topo  workload.Topology
		n     int
		edges []query.Edge
		inst  int
	}{
		{"Example-9", workload.Custom, 9, query.Example9Edges(), c.instances(15)},
		{"Star-13", workload.Star, 13, nil, c.instances(6)},
	} {
		spec := c.schema()
		spec.Topology = wl.topo
		spec.NumRelations = wl.n
		spec.Edges = wl.edges
		qs, err := workload.Instances(*spec, wl.inst)
		if err != nil {
			return "", err
		}
		b, err := RunBatch(wl.label, qs, []Technique{
			TechDP(budget),
			TechSDPVariant("SDP/Opt1", opt1, budget),
			TechSDPVariant("SDP/Opt2", core.DefaultOptions(), budget),
		}, "DP")
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-10s %-10s %16s %10s\n", "Graph", "Option", "JCRsProcessed", "rho")
		for _, o := range b.Outcomes {
			if o.Name == "DP" {
				continue
			}
			fmt.Fprintf(&sb, "%-10s %-10s %16.0f %10.4f\n", wl.label, o.Name, meanClasses(qs, o.Name, budget), o.Summary.Rho)
		}
	}
	return sb.String(), nil
}

// meanClasses reruns the named SDP option to report classes created (the
// "JCRs processed" calibration of Table 2.3).
func meanClasses(qs []*query.Query, name string, budget int64) float64 {
	opts := core.DefaultOptions()
	if strings.Contains(name, "Opt1") {
		opts.Skyline = core.Option1
	}
	opts.Budget = budget
	var total int64
	for _, q := range qs {
		_, stats, err := core.Optimize(q, opts)
		if err != nil {
			return 0
		}
		total += stats.Memo.ClassesCreated
	}
	return float64(total) / float64(len(qs))
}

// Figure22 reproduces Figures 2.2 and 2.3: a textual walkthrough of SDP's
// iterations on the example join graph — per level, the PruneGroup /
// FreeGroup split, the hub partitions, survivors and pruned JCRs — plus a
// sample JCR feature vector.
func Figure22(c Config) (string, error) {
	tr, stats, err := c.tracedExample9()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 2.2: SDP Iterations on the Example Join Graph (Figure 2.1)\n")
	for _, lvl := range tr.Levels {
		fmt.Fprintf(&sb, "Level %d: PruneGroup=%d FreeGroup=%d survivors=%d pruned=%d\n",
			lvl.Level, len(lvl.PruneGroup), len(lvl.FreeGroup), len(lvl.Survivors), len(lvl.Pruned))
		labels := make([]string, 0, len(lvl.Partitions))
		for l := range lvl.Partitions {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&sb, "  partition %-8s %v\n", l, lvl.Partitions[l])
		}
		if len(lvl.Pruned) > 0 {
			fmt.Fprintf(&sb, "  pruned: %v\n", lvl.Pruned)
		}
	}
	// Figure 2.3: a sample feature vector.
	for _, lvl := range tr.Levels {
		for _, s := range lvl.PruneGroup {
			fv := lvl.Features[s]
			fmt.Fprintf(&sb, "Figure 2.3: FV(%v) = [Rows=%.0f, Cost=%.2f, Sel=%.3e]\n", s, fv.Rows, fv.Cost, fv.Sel)
			break
		}
		break
	}
	fmt.Fprintf(&sb, "total classes created: %d, plans costed: %d\n", stats.Memo.ClassesCreated, stats.PlansCosted)
	return sb.String(), nil
}

// Table31 reproduces Table 3.1: star join graph plan quality at 15, 20 and
// 23 relations (DP reference at 15; SDP reference beyond, where DP is
// infeasible).
func Table31(c Config) (string, error) {
	var sb strings.Builder
	sb.WriteString("Table 3.1: Star Plan Quality\n")
	for _, n := range []int{15, 20, 23} {
		b, err := c.paperBatch(workload.Star, n, starDefaults(n), n <= starDPLimit, false)
		if err != nil {
			return "", err
		}
		sb.WriteString(b.QualityTable())
	}
	return sb.String(), nil
}

// starDPLimit is the largest star size where exhaustive DP fits the 1 GB
// budget (established by Table 2.1 / Table 3.3).
const starDPLimit = 17

func starDefaults(n int) int {
	if n <= 15 {
		return 8 // exhaustive DP on a 15-star runs ~9 s per instance
	}
	return 12
}

// Table32 reproduces Table 3.2: star overheads at 15, 20 and 23 relations.
func Table32(c Config) (string, error) {
	var sb strings.Builder
	sb.WriteString("Table 3.2: Star Optimization Overheads\n")
	for _, n := range []int{15, 20, 23} {
		b, err := c.paperBatch(workload.Star, n, starDefaults(n), n <= starDPLimit, false)
		if err != nil {
			return "", err
		}
		sb.WriteString(b.OverheadTable())
	}
	return sb.String(), nil
}

// Table33 reproduces Table 3.3: the maximum star join size each algorithm
// can optimize within the memory budget, on the extended schema, with the
// optimization time at that maximum.
func Table33(c Config) (string, error) {
	cat := workload.ExtendedSchema(50)
	budget := c.budget()
	techs := paperRows(budget)
	starts := map[string]int{"DP": 14, "IDP(7)": 18, "IDP(4)": 30, "SDP": 30}
	const ceiling = 45 // the paper's scan ceiling
	var sb strings.Builder
	sb.WriteString("Table 3.3: Maximum Star Scaleup (extended schema, scan ceiling 45)\n")
	fmt.Fprintf(&sb, "%-8s %10s %14s\n", "Tech", "MaxRels", "TimeAtMax")
	for _, t := range techs {
		maxN, tAtMax, err := maxFeasibleStar(cat, t, starts[t.Name], ceiling, c.Seed)
		if err != nil {
			return "", err
		}
		label := fmt.Sprintf("%d", maxN)
		if maxN >= ceiling {
			label = fmt.Sprintf(">=%d", ceiling)
		}
		fmt.Fprintf(&sb, "%-8s %10s %14s\n", t.Name, label, wallTime(tAtMax, time.Millisecond))
	}
	return sb.String(), nil
}

// maxFeasibleStar scans star sizes upward from start until the technique
// exceeds its budget, returning the last feasible size and its time. The
// ceiling is probed first: a technique that handles the largest size (the
// paper's 45-relation cap) needs no scan.
func maxFeasibleStar(cat *catalog.Catalog, t Technique, start, ceiling int, seed int64) (int, time.Duration, error) {
	q, err := workload.One(workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: ceiling, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	if _, stats, err := t.Run(q); err == nil {
		return ceiling, stats.Elapsed, nil
	} else if !errors.Is(err, memo.ErrBudget) {
		return 0, 0, err
	}
	try := func(n int) (bool, time.Duration, error) {
		q, err := workload.One(workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: n, Seed: seed})
		if err != nil {
			return false, 0, err
		}
		_, stats, err := t.Run(q)
		if errors.Is(err, memo.ErrBudget) {
			return false, 0, nil
		}
		if err != nil {
			return false, 0, err
		}
		return true, stats.Elapsed, nil
	}
	// Under reduced budgets the nominal start may itself be infeasible;
	// walk down to a feasible base first, then scan upward.
	for ; start > 2; start-- {
		ok, d, err := try(start)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			continue
		}
		last, lastTime := start, d
		for n := start + 1; n < ceiling; n++ {
			ok, d, err := try(n)
			if err != nil {
				return 0, 0, err
			}
			if !ok {
				break
			}
			last, lastTime = n, d
		}
		return last, lastTime, nil
	}
	return 0, 0, nil
}

// Table34 reproduces Table 3.4: ordered star plan quality at 15, 20, 23.
func Table34(c Config) (string, error) {
	var sb strings.Builder
	sb.WriteString("Table 3.4: Ordered Star Plan Quality\n")
	for _, n := range []int{15, 20, 23} {
		b, err := c.paperBatch(workload.Star, n, starDefaults(n), n <= starDPLimit, true)
		if err != nil {
			return "", err
		}
		sb.WriteString(b.QualityTable())
	}
	return sb.String(), nil
}

// Table35 reproduces Table 3.5: ordered star-chain plan quality at 15, 20,
// 23. DP remains feasible at 20 (the chain keeps the star component small
// enough), as in the paper.
func Table35(c Config) (string, error) {
	var sb strings.Builder
	sb.WriteString("Table 3.5: Ordered Star-Chain Plan Quality\n")
	sizes := []struct {
		n, inst int
		refDP   bool
	}{{15, 12, true}, {20, 3, true}, {23, 8, false}}
	for _, sz := range sizes {
		b, err := c.paperBatch(workload.StarChain, sz.n, sz.inst, sz.refDP, true)
		if err != nil {
			return "", err
		}
		sb.WriteString(b.QualityTable())
	}
	return sb.String(), nil
}

// Table36 reproduces Table 3.6: localized versus global skyline pruning on
// the (unordered) Star-Chain-20 graph, demonstrating the need for SDP's
// hub-localized pruning.
func Table36(c Config) (string, error) {
	spec := c.schema()
	spec.Topology = workload.StarChain
	spec.NumRelations = 20
	qs, err := workload.Instances(*spec, c.instances(3))
	if err != nil {
		return "", err
	}
	budget := c.budget()
	global := core.DefaultOptions()
	global.Scope = core.Global
	b, err := RunBatch("Star-Chain-20", qs, []Technique{
		TechDP(budget),
		TechSDPVariant("SDP/Glob", global, budget),
		TechSDPVariant("SDP/Local", core.DefaultOptions(), budget),
	}, "DP")
	if err != nil {
		return "", err
	}
	return "Table 3.6: Local vs Global Pruning (Star-Chain-20)\n" + b.QualityTable(), nil
}

// AblationPartitioning compares root-hub against parent-hub partitioning —
// the design choice Section 3.1 settles in favor of root hubs.
func AblationPartitioning(c Config) (string, error) {
	spec := c.schema()
	spec.Topology = workload.StarChain
	spec.NumRelations = 15
	qs, err := workload.Instances(*spec, c.instances(10))
	if err != nil {
		return "", err
	}
	budget := c.budget()
	parent := core.DefaultOptions()
	parent.Partitioning = core.ParentHub
	b, err := RunBatch("Star-Chain-15", qs, []Technique{
		TechDP(budget),
		TechSDPVariant("SDP/Root", core.DefaultOptions(), budget),
		TechSDPVariant("SDP/Parent", parent, budget),
	}, "DP")
	if err != nil {
		return "", err
	}
	return "Ablation: Root-Hub vs Parent-Hub Partitioning\n" + b.QualityTable() + b.OverheadTable(), nil
}

// AblationStrongSkyline evaluates the k-dominant ("strong") skyline the
// paper's conclusion lists as future work.
func AblationStrongSkyline(c Config) (string, error) {
	spec := c.schema()
	spec.Topology = workload.StarChain
	spec.NumRelations = 15
	qs, err := workload.Instances(*spec, c.instances(10))
	if err != nil {
		return "", err
	}
	budget := c.budget()
	strong := core.DefaultOptions()
	strong.Skyline = core.StrongSkyline
	b, err := RunBatch("Star-Chain-15", qs, []Technique{
		TechDP(budget),
		TechSDPVariant("SDP", core.DefaultOptions(), budget),
		TechSDPVariant("SDP/Strong", strong, budget),
	}, "DP")
	if err != nil {
		return "", err
	}
	return "Ablation: Strong (k-dominant) Skyline (future work)\n" + b.QualityTable() + b.OverheadTable(), nil
}

// AblationIDPEvals compares IDP's basic plan-evaluation functions (MinCost,
// MinRows, MinSel), the baseline study referenced from the IDP paper.
func AblationIDPEvals(c Config) (string, error) {
	spec := c.schema()
	spec.Topology = workload.StarChain
	spec.NumRelations = 15
	qs, err := workload.Instances(*spec, c.instances(10))
	if err != nil {
		return "", err
	}
	budget := c.budget()
	techs := []Technique{TechDP(budget)}
	for _, ev := range []struct {
		name string
		eval idp.Eval
	}{{"IDP/Rows", idp.MinRows}, {"IDP/Cost", idp.MinCost}, {"IDP/Sel", idp.MinSel}} {
		eval := ev.eval
		techs = append(techs, Technique{Name: ev.name, Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
			opts := idp.DefaultOptions()
			opts.Eval = eval
			opts.Budget = budget
			return idp.Optimize(q, opts)
		}})
	}
	b, err := RunBatch("Star-Chain-15", qs, techs, "DP")
	if err != nil {
		return "", err
	}
	return "Ablation: IDP Plan-Evaluation Functions\n" + b.QualityTable(), nil
}

// AblationPriorArt compares every optimizer family the paper situates SDP
// against — exhaustive DP, IDP, SDP, greedy operator ordering (GOO), the
// randomized searches (II, SA) and a GEQO-style genetic optimizer — on the
// Star-Chain-15 workload. The randomized and genetic baselines are the
// "jettison DP entirely" alternatives of the paper's introduction.
func AblationPriorArt(c Config) (string, error) {
	spec := c.schema()
	spec.Topology = workload.StarChain
	spec.NumRelations = 15
	qs, err := workload.Instances(*spec, c.instances(10))
	if err != nil {
		return "", err
	}
	budget := c.budget()
	techs := []Technique{
		TechDP(budget),
		TechIDP(7, budget),
		TechSDP(budget),
		TechGOO(),
		{Name: "II", Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
			return randomized.Optimize(q, randomized.Options{Algorithm: randomized.II, Seed: c.Seed})
		}},
		{Name: "SA", Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
			return randomized.Optimize(q, randomized.Options{Algorithm: randomized.SA, Seed: c.Seed})
		}},
		{Name: "GEQO", Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
			return genetic.Optimize(q, genetic.Options{Seed: c.Seed})
		}},
	}
	b, err := RunBatch("Star-Chain-15", qs, techs, "DP")
	if err != nil {
		return "", err
	}
	return "Comparison: All Optimizer Families (Star-Chain-15)\n" + b.QualityTable() + b.OverheadTable(), nil
}

// AblationIDP2 compares the two IDP families — IDP1's bottom-up block
// commitment against IDP2's greedy-then-re-optimize subtree passes — on
// the Star-Chain-15 workload.
func AblationIDP2(c Config) (string, error) {
	spec := c.schema()
	spec.Topology = workload.StarChain
	spec.NumRelations = 15
	qs, err := workload.Instances(*spec, c.instances(10))
	if err != nil {
		return "", err
	}
	budget := c.budget()
	idp2K4 := Technique{Name: "IDP2(4)", Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
		opts := idp.DefaultOptions()
		opts.K = 4
		opts.Budget = budget
		return idp.Optimize2(q, opts)
	}}
	b, err := RunBatch("Star-Chain-15", qs, []Technique{
		TechDP(budget),
		TechIDP(7, budget),
		TechIDP2(budget),
		idp2K4,
		TechSDP(budget),
	}, "DP")
	if err != nil {
		return "", err
	}
	return "Ablation: IDP1 vs IDP2 (Star-Chain-15)\n" + b.QualityTable() + b.OverheadTable(), nil
}

// ExtTopologies substantiates the paper's remark that "results for the
// other topologies are similar in flavor" (Section 3.1): plan quality on
// cycle and clique workloads. Cycles have no hubs (SDP equals DP); cliques
// are all hubs (strong pruning).
func ExtTopologies(c Config) (string, error) {
	budget := c.budget()
	var sb strings.Builder
	sb.WriteString("Extension: Other Join-Graph Topologies\n")
	for _, wl := range []struct {
		topo workload.Topology
		n    int
		inst int
	}{
		{workload.Cycle, 12, c.instances(10)},
		{workload.Clique, 9, c.instances(8)},
	} {
		spec := c.schema()
		spec.Topology = wl.topo
		spec.NumRelations = wl.n
		qs, err := workload.Instances(*spec, wl.inst)
		if err != nil {
			return "", err
		}
		graph := fmt.Sprintf("%s-%d", wl.topo, wl.n)
		b, err := RunBatch(graph, qs, paperRows(budget), "DP")
		if err != nil {
			return "", err
		}
		sb.WriteString(b.QualityTable())
	}
	return sb.String(), nil
}

// ExtTPCH compares the optimizers on the TPC-H query shapes the paper's
// introduction cites (Q8 and Q9 are its Star-Chain exemplars), at scale
// factor 1. Every query has at most eight relations, so exhaustive DP is
// the reference and the interesting outputs are the per-query plan costs
// and the effort each technique spends reaching (or missing) them.
func ExtTPCH(c Config) (string, error) {
	cat, err := tpch.Schema(1)
	if err != nil {
		return "", err
	}
	budget := c.budget()
	var sb strings.Builder
	sb.WriteString("Extension: TPC-H Query Shapes (SF 1)\n")
	fmt.Fprintf(&sb, "%-5s %-8s %14s %9s %12s %12s\n", "Query", "Tech", "PlanCost", "vs DP", "PlansCosted", "Time")
	for _, name := range tpch.Names() {
		q, err := tpch.Query(cat, name)
		if err != nil {
			return "", err
		}
		var ref float64
		for _, t := range paperRows(budget) {
			p, stats, err := t.Run(q)
			if err != nil {
				return "", fmt.Errorf("%s %s: %w", name, t.Name, err)
			}
			if ref == 0 {
				ref = p.Cost
			}
			fmt.Fprintf(&sb, "%-5s %-8s %14.1f %9.4f %12d %12s\n",
				name, t.Name, p.Cost, p.Cost/ref, stats.PlansCosted, wallTime(stats.Elapsed, time.Microsecond))
		}
	}
	return sb.String(), nil
}

// ExtValidate closes the loop the paper leaves open: it executes the
// optimizers' plans on synthetic data generated from a scaled-down schema
// and reports (a) that differently-shaped plans return identical result
// multisets, and (b) how far the optimizer's cardinality estimates land
// from the truth. The paper's metrics are all optimizer-internal; this is
// the repository's end-to-end soundness check.
func ExtValidate(c Config) (string, error) {
	cfg := catalog.DefaultConfig()
	cfg.NumRelations = 8
	cfg.BaseRows = 25
	cfg.Ratio = 1.3
	cfg.MinDomain = 12
	cfg.MaxDomain = 150
	cfg.Seed = c.Seed + 1
	if c.Skewed {
		cfg.SkewFraction = 0.5
	}
	cat, err := catalog.Synthetic(cfg)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Extension: Executor Validation (scaled-down schema)\n")
	fmt.Fprintf(&sb, "%-14s %10s %10s %10s %10s  %s\n", "Graph", "EstRows", "ActRows", "log10Err", "Plans", "Multisets")
	for _, wl := range []struct {
		topo workload.Topology
		n    int
	}{
		{workload.Chain, 5},
		{workload.Star, 6},
		{workload.StarChain, 7},
	} {
		qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: wl.topo, NumRelations: wl.n, Seed: c.Seed}, 1)
		if err != nil {
			return "", err
		}
		q := qs[0]
		db, err := exec.Generate(q, c.Seed, 100_000)
		if err != nil {
			return "", err
		}
		var plans []*plan.Plan
		fingerprints := map[string]bool{}
		var actual int
		for _, name := range []string{tech.DP, tech.SDP, tech.Greedy} {
			p, _, err := tech.Run(context.TODO(), name, q, tech.Options{})
			if err != nil {
				return "", err
			}
			res, err := db.Run(p)
			if err != nil {
				return "", err
			}
			plans = append(plans, p)
			fingerprints[res.Fingerprint()] = true
			actual = res.NumRows()
		}
		est := plans[0].Rows
		agreement := "IDENTICAL"
		if len(fingerprints) != 1 {
			agreement = "MISMATCH"
		}
		fmt.Fprintf(&sb, "%-14s %10.0f %10d %+10.2f %10d  %s\n",
			fmt.Sprintf("%s-%d", wl.topo, wl.n), est, actual,
			exec.EstimationError(est, actual), len(plans), agreement)
	}
	return sb.String(), nil
}

// AblationBushy quantifies the bushy-join benefit: exhaustive DP against
// its System-R left-deep restriction on the Star-Chain-15 workload. The
// paper's enumerator (PostgreSQL's) is bushy; this ablation shows what the
// restriction would cost.
func AblationBushy(c Config) (string, error) {
	spec := c.schema()
	spec.Topology = workload.StarChain
	spec.NumRelations = 15
	qs, err := workload.Instances(*spec, c.instances(10))
	if err != nil {
		return "", err
	}
	budget := c.budget()
	leftDeep := Technique{Name: "DP/LD", Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
		return dp.Optimize(q, dp.Options{Budget: budget, LeftDeepOnly: true})
	}}
	b, err := RunBatchWorkers("Star-Chain-15", qs, []Technique{TechDP(budget), leftDeep}, "DP", c.workers())
	if err != nil {
		return "", err
	}
	return "Ablation: Bushy vs Left-Deep Enumeration\n" + b.QualityTable() + b.OverheadTable(), nil
}

// ExtEstimation compares filter-selectivity estimation under the uniform
// assumption against the distribution-aware (histogram CDF) estimate the
// cost model uses, measured against executed ground truth on skewed
// columns. This validates the ANALYZE-style statistics substrate.
func ExtEstimation(c Config) (string, error) {
	cfg := catalog.DefaultConfig()
	cfg.NumRelations = 4
	cfg.BaseRows = 2000
	cfg.Ratio = 1.2
	cfg.MinDomain = 50
	cfg.MaxDomain = 500
	cfg.SkewFraction = 1 // every column skewed: the hard case for uniform
	cfg.Seed = c.Seed + 3
	cat, err := catalog.Synthetic(cfg)
	if err != nil {
		return "", err
	}
	qs, err := workload.Instances(workload.Spec{
		Cat: cat, Topology: workload.Chain, NumRelations: 3,
		FilterFraction: 1, Seed: c.Seed,
	}, c.instances(8))
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Extension: Filter Selectivity Estimation (skewed columns)\n")
	fmt.Fprintf(&sb, "%-8s %10s %10s %10s %12s %12s\n", "Filter", "Actual", "Uniform", "CDF", "errUniform", "errCDF")
	var sumU, sumC float64
	n := 0
	for qi, q := range qs {
		db, err := exec.Generate(q, c.Seed+int64(qi), 10_000)
		if err != nil {
			return "", err
		}
		m := cost.NewModel(q, cost.DefaultParams())
		for _, f := range q.Filters {
			rel := q.Relation(f.Rel)
			col := rel.Cols[f.Col]
			actual := 0
			res, err := db.Run(&plan.Plan{Op: plan.SeqScan, Rels: bits.Single(f.Rel), Rel: f.Rel, Rows: rel.Rows})
			if err != nil {
				return "", err
			}
			actual = res.NumRows()
			uniform := rel.Rows * math.Min(1, float64(f.Bound)/col.NDV)
			cdf := rel.Rows * m.FilterSel(f)
			eu := math.Abs(exec.EstimationError(uniform, actual))
			ec := math.Abs(exec.EstimationError(cdf, actual))
			sumU += eu
			sumC += ec
			n++
			fmt.Fprintf(&sb, "q%d.%-5s %10d %10.0f %10.0f %12.3f %12.3f\n",
				qi, col.Name, actual, uniform, cdf, eu, ec)
		}
	}
	if n > 0 {
		fmt.Fprintf(&sb, "mean |log10 error|: uniform=%.3f cdf=%.3f (lower is better)\n",
			sumU/float64(n), sumC/float64(n))
	}
	return sb.String(), nil
}

// largeQueryBatches runs the workloads too wide for a single machine word to
// hold their relation sets, over extended schemas. Technique choices per
// batch follow measured feasibility on the 1 GB budget:
//
//   - Star-30: SDP fits (hub pruning collapses the spoke combinations), so
//     it is the reference, with IDP2 and greedy beside it.
//   - Clique-25: nothing prunes a clique — SDP degenerates to exhaustive
//     enumeration and grinds for tens of seconds to its budget abort, so it
//     is recorded as a static infeasible row rather than re-probed every
//     run; greedy is the reference and IDP2 the quality comparison.
//   - Chain-40: exhaustive DP is feasible (the chain's connected pair count
//     is cubic), so DP is the reference and the batch carries the DPsize
//     generate-and-filter scan ("DP-size"), SDP, IDP2 and greedy beside it.
//     The two DP rows report identical plans, costings and memory; their
//     MeanPairsConsidered differ by the enumeration-work gap ((n³−n)/6 =
//     10 660 connected pairs against the scan's ~274 k generated candidates).
//
// Exhaustive DP is statically infeasible on Star-30 and Clique-25 exactly
// as on the Star-17 main batch: 2³⁰ and 2²⁵ subsets dwarf the budget.
func (c Config) largeQueryBatches() ([]*Batch, error) {
	budget := c.budget()
	var out []*Batch
	run := func(topo workload.Topology, n int, techs []Technique, ref string, static ...string) error {
		graph := fmt.Sprintf("%s-%d", topo, n)
		qs, err := workload.Instances(workload.Spec{
			Cat: workload.ExtendedSchema(n), Topology: topo, NumRelations: n, Seed: c.Seed,
		}, c.instances(3))
		if err != nil {
			return err
		}
		b, err := RunBatchWorkers(graph, qs, techs, ref, c.workers())
		if err != nil {
			return fmt.Errorf("%s: %w", graph, err)
		}
		for i := len(static) - 1; i >= 0; i-- {
			b.AddInfeasible(static[i])
		}
		out = append(out, b)
		return nil
	}
	if err := run(workload.Star, 30,
		[]Technique{TechSDP(budget), TechIDP2(budget), TechGOO()},
		"SDP", "DP"); err != nil {
		return nil, err
	}
	if err := run(workload.Clique, 25,
		[]Technique{TechIDP2(budget), TechGOO()},
		"GOO", "DP", "SDP"); err != nil {
		return nil, err
	}
	dpSize := Technique{Name: "DP-size", Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
		return dp.Optimize(q, dp.Options{Enum: dp.EnumNaive, Budget: budget, Label: "DP-size"})
	}}
	if err := run(workload.Chain, 40,
		[]Technique{TechDP(budget), dpSize, TechSDP(budget), TechIDP2(budget), TechGOO()},
		"DP"); err != nil {
		return nil, err
	}
	return out, nil
}

// ExtLargeQuery reports plan quality and overheads on Star-30, Clique-25 and
// Chain-40 — which techniques survive the memory budget beyond 64-bit
// relation sets, and what the survivors cost.
func ExtLargeQuery(c Config) (string, error) {
	batches, err := c.largeQueryBatches()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Extension: Large Queries (extended schemas)\n")
	for _, b := range batches {
		sb.WriteString(b.QualityTable())
		sb.WriteString(b.OverheadTable())
	}
	return sb.String(), nil
}
