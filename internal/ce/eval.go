package ce

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sdpopt/internal/catalog"
	"sdpopt/internal/cost"
	"sdpopt/internal/feedback"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/tech"
	"sdpopt/internal/workload"
)

// TopoSpec selects one join-graph family for the robustness sweep.
type TopoSpec struct {
	Topology     workload.Topology
	NumRelations int
}

func (t TopoSpec) String() string { return fmt.Sprintf("%v-%d", t.Topology, t.NumRelations) }

// Config parameterizes a robustness evaluation.
type Config struct {
	// Cat is the true-statistics catalog; nil selects the paper schema.
	Cat *catalog.Catalog
	// Seed drives workload sampling, error-factor generation, and
	// stats-loss coin flips.
	Seed int64
	// Instances per topology (0 = 3).
	Instances int
	// Budget is the simulated-memory budget per optimization in bytes
	// (0 = the engines' 1 GB default).
	Budget int64
	// Bands are the q-error bands to inject (nil = 1, 2, 4, 8). Band 1
	// injects nothing and anchors the reference assertion.
	Bands []float64
	// Healths are the stats-health levels: the fraction of columns
	// retaining ANALYZE statistics (nil = 1.0, 0.5).
	Healths []float64
	// Mode selects what the injector corrupts.
	Mode Mode
	// Empirical, when non-nil, replaces the synthetic log-normal injector
	// with measured error: every estimate is scaled by the geomean
	// est/actual factor this profile recorded for the catalog object (see
	// feedback.BuildProfile). Bands are ignored in this mode — the error
	// is whatever was measured — so defaults() collapses them to {1}.
	Empirical *feedback.ErrorProfile
	// Topologies to sweep (nil = Chain-8, Star-9, Star-Chain-9). Sizes
	// must stay DP-feasible: exhaustive DP under truth is the ρ baseline.
	Topologies []TopoSpec
	// Exec enables the execution-validation pass (see ExecReport).
	Exec bool
	// ExecMaxRows caps base-relation size for execution (0 = 5000).
	ExecMaxRows int
	// Obs receives sdpopt_ce_* metrics; nil falls back to the process
	// default observer.
	Obs *obs.Observer
}

// Cell is one aggregated grid point of the sweep: a technique's plan
// quality for one topology at one (error band, stats health).
type Cell struct {
	Tech   string  `json:"tech"`
	Band   float64 `json:"band"`
	Health float64 `json:"health"`
	// Rho is the geometric-mean ratio of the chosen plan's true cost to
	// the true optimum (exhaustive DP under true statistics). 1.0 means
	// the lie never changed the winner.
	Rho float64 `json:"rho"`
	// Worst is the maximum such ratio across instances.
	Worst float64 `json:"worst"`
	// QErr* summarize per-join-node q-error — max(est/true, true/est) of
	// the lying model's intermediate cardinalities against the true
	// model's — over all join nodes of all chosen plans in the cell.
	QErrP50 float64 `json:"qerr_p50"`
	QErrP95 float64 `json:"qerr_p95"`
	QErrMax float64 `json:"qerr_max"`
	// MeanClassesAlive / MeanPathsRetained are the technique's surviving
	// memo classes and retained plans per optimization — the "escape
	// hatches" still open when the estimate is wrong. SDP's skyline keeps
	// multiple frontier plans per class; IDP commits to subtrees.
	MeanClassesAlive  float64 `json:"mean_classes_alive"`
	MeanPathsRetained float64 `json:"mean_paths_retained"`
	// Infeasible counts instances the technique could not finish under
	// the memory budget; they contribute no ratio.
	Infeasible int `json:"infeasible,omitempty"`
}

// TopologyReport groups the sweep cells of one join-graph family.
type TopologyReport struct {
	Graph string `json:"graph"`
	Cells []Cell `json:"cells"`
}

// Report is a full robustness evaluation.
type Report struct {
	Seed       int64            `json:"seed"`
	Instances  int              `json:"instances"`
	Mode       string           `json:"mode"`
	Bands      []float64        `json:"bands"`
	Healths    []float64        `json:"healths"`
	Topologies []TopologyReport `json:"topologies"`
	Exec       *ExecReport      `json:"exec,omitempty"`
}

func (c *Config) defaults() {
	if c.Cat == nil {
		c.Cat = workload.PaperSchema()
	}
	if c.Instances == 0 {
		c.Instances = 3
	}
	if c.Empirical != nil {
		// Measured error has no band knob; one pass per (health, tech).
		c.Bands = []float64{1}
	}
	if len(c.Bands) == 0 {
		c.Bands = []float64{1, 2, 4, 8}
	}
	if len(c.Healths) == 0 {
		c.Healths = []float64{1, 0.5}
	}
	if len(c.Topologies) == 0 {
		c.Topologies = []TopoSpec{
			{workload.Chain, 8},
			{workload.Star, 9},
			{workload.StarChain, 9},
		}
	}
	if c.ExecMaxRows == 0 {
		c.ExecMaxRows = 5000
	}
}

// Evaluate runs the robustness sweep: for every (topology, instance,
// health, band, technique) it optimizes the query under the lying
// estimator, re-costs the chosen plan under true statistics, and aggregates
// ρ, q-error quantiles, and escape-hatch counts per cell.
func Evaluate(cfg Config) (*Report, error) {
	cfg.defaults()
	// Bands are validated by NewInjector per cell; healths must be checked
	// here because health >= 1 short-circuits past DegradeCatalog.
	for _, h := range cfg.Healths {
		if h < 0 || h > 1 {
			return nil, fmt.Errorf("ce: stats health %g outside [0, 1]", h)
		}
	}
	ob := obs.Or(cfg.Obs)
	mode := cfg.Mode.String()
	if cfg.Empirical != nil {
		mode = fmt.Sprintf("empirical(n=%d)", cfg.Empirical.Observations)
	}
	rep := &Report{
		Seed:      cfg.Seed,
		Instances: cfg.Instances,
		Mode:      mode,
		Bands:     cfg.Bands,
		Healths:   cfg.Healths,
	}
	for _, topo := range cfg.Topologies {
		tr, err := evaluateTopology(&cfg, topo, ob)
		if err != nil {
			return nil, fmt.Errorf("ce: %v: %w", topo, err)
		}
		rep.Topologies = append(rep.Topologies, *tr)
	}
	if cfg.Exec {
		er, err := execValidate(&cfg)
		if err != nil {
			return nil, fmt.Errorf("ce: exec validation: %w", err)
		}
		rep.Exec = er
	}
	return rep, nil
}

// cellAccum collects per-instance outcomes of one sweep cell.
type cellAccum struct {
	ratios []float64
	qerrs  []float64
	alive  []float64
	paths  []float64
	infeas int
}

func evaluateTopology(cfg *Config, topo TopoSpec, ob *obs.Observer) (*TopologyReport, error) {
	spec := workload.Spec{
		Cat:          cfg.Cat,
		Topology:     topo.Topology,
		NumRelations: topo.NumRelations,
		Seed:         cfg.Seed,
	}
	qs, err := workload.Instances(spec, cfg.Instances)
	if err != nil {
		return nil, err
	}
	params := cost.DefaultParams()

	// True models and reference costs: exhaustive DP under true statistics
	// is the optimum every chosen plan is measured against.
	trueModels := make([]*cost.Model, len(qs))
	refCosts := make([]float64, len(qs))
	for i, q := range qs {
		trueModels[i] = cost.NewModel(q, params)
		ref, _, err := tech.Run(context.TODO(), tech.DP, q, tech.Options{Model: cost.NewModel(q, params), Budget: cfg.Budget})
		if err != nil {
			return nil, fmt.Errorf("reference dp on instance %d: %w", i, err)
		}
		refCosts[i] = ref.Cost
	}

	tr := &TopologyReport{Graph: topo.String()}
	for _, health := range cfg.Healths {
		// One degraded catalog per health level; queries are mirrored onto
		// it so the optimizer sees the lost statistics, while trueModels
		// keep the intact catalog.
		lyingQs := qs
		if health < 1 {
			degraded, err := DegradeCatalog(cfg.Cat, health, cfg.Seed)
			if err != nil {
				return nil, err
			}
			lyingQs = make([]*query.Query, len(qs))
			for i, q := range qs {
				if lyingQs[i], err = MirrorQuery(q, degraded); err != nil {
					return nil, fmt.Errorf("mirror instance %d: %w", i, err)
				}
			}
		}
		for _, band := range cfg.Bands {
			// tech.Names() is strongest first, so DP — the reference that
			// defines the true optimum at band 1 / health 1 — leads each
			// band's rows.
			for _, name := range tech.Names() {
				acc := cellAccum{}
				for i, lq := range lyingQs {
					var est cost.Estimator
					if cfg.Empirical != nil {
						est = NewEmpiricalEstimator(lq, nil, cfg.Empirical)
					} else {
						inj, err := NewInjector(lq, nil, band, cfg.Seed, cfg.Mode)
						if err != nil {
							return nil, err
						}
						est = inj
					}
					m := cost.NewModelEst(lq, params, est)
					p, st, err := tech.Run(context.TODO(), name, lq, tech.Options{Model: m, Budget: cfg.Budget})
					if err != nil {
						acc.infeas++
						ob.Counter(obs.Label(obs.MCEInfeasible, "tech", name)).Add(1)
						continue
					}
					// The chosen tree re-costed under truth: what the plan
					// will really cost. The frames match by construction
					// (MirrorQuery preserves indexing), so the true model
					// accepts the lying-frame tree directly.
					trueP := trueModels[i].Recost(p)
					ratio := trueP.Cost / refCosts[i]
					acc.ratios = append(acc.ratios, ratio)
					collectJoinQErr(p, trueP, &acc.qerrs)
					acc.alive = append(acc.alive, float64(st.Memo.ClassesAlive))
					acc.paths = append(acc.paths, float64(st.Memo.PathsRetained))
					ob.Counter(obs.Label(obs.MCEEvaluations, "tech", name)).Add(1)
					ob.Histogram(obs.Label(obs.MCEPlanRatio, "tech", name), obs.RatioBuckets).Observe(ratio)
				}
				cell := Cell{
					Tech:              name,
					Band:              band,
					Health:            health,
					Rho:               geoMean(acc.ratios),
					Worst:             maxOf(acc.ratios),
					QErrP50:           quantile(acc.qerrs, 0.5),
					QErrP95:           quantile(acc.qerrs, 0.95),
					QErrMax:           maxOf(acc.qerrs),
					MeanClassesAlive:  mean(acc.alive),
					MeanPathsRetained: mean(acc.paths),
					Infeasible:        acc.infeas,
				}
				for _, qe := range acc.qerrs {
					ob.Histogram(obs.Label(obs.MCEQError, "tech", name), obs.RatioBuckets).Observe(qe)
				}
				tr.Cells = append(tr.Cells, cell)
			}
		}
	}
	return tr, nil
}

// collectJoinQErr walks the lying and true trees in lockstep (Recost
// preserves shape) and records the q-error of every join node's cardinality
// estimate: max(est/true, true/est) ≥ 1.
func collectJoinQErr(lie, truth *plan.Plan, out *[]float64) {
	if lie == nil || truth == nil {
		return
	}
	if lie.Op.IsJoin() {
		*out = append(*out, qerror(lie.Rows, truth.Rows))
	}
	collectJoinQErr(lie.Left, truth.Left, out)
	collectJoinQErr(lie.Right, truth.Right, out)
}

func qerror(est, actual float64) float64 {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	return math.Max(est/actual, actual/est)
}

func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// quantile returns the q-th quantile by nearest-rank over a copy of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	i := int(math.Ceil(q*float64(len(cp)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(cp) {
		i = len(cp) - 1
	}
	return cp[i]
}
