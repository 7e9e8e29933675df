// Package sdpopt is a query-optimizer laboratory reproducing "Robust
// Heuristics for Scalable Optimization of Complex SQL Queries" (ICDE 2007):
// SDP — Skyline Dynamic Programming — a robust pruning strategy for the
// bottom-up dynamic-programming join-order search, evaluated against
// exhaustive DP and Iterative Dynamic Programming (IDP).
//
// The package exposes the full pipeline:
//
//	cat := sdpopt.PaperSchema()                           // synthetic statistics
//	qs, _ := sdpopt.Instances(sdpopt.WorkloadSpec{        // workload generation
//	    Cat: cat, Topology: sdpopt.Star, NumRelations: 15,
//	}, 10)
//	plan, stats, _ := sdpopt.OptimizeSDP(qs[0], sdpopt.SDPOptions())
//	fmt.Println(sdpopt.Explain(qs[0], plan))
//
// and the experiment harness that regenerates every table and figure of the
// paper (see Experiments and RunExperiment).
package sdpopt

import (
	"context"

	"sdpopt/internal/catalog"
	"sdpopt/internal/ce"
	"sdpopt/internal/core"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/exec"
	"sdpopt/internal/genetic"
	"sdpopt/internal/greedy"
	"sdpopt/internal/harness"
	"sdpopt/internal/idp"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/parse"
	"sdpopt/internal/plan"
	"sdpopt/internal/quality"
	"sdpopt/internal/query"
	"sdpopt/internal/randomized"
	"sdpopt/internal/tpch"
	"sdpopt/internal/workload"
)

// Schema and statistics.
type (
	// Catalog is a database schema with optimizer statistics.
	Catalog = catalog.Catalog
	// Relation is one base table's statistics.
	Relation = catalog.Relation
	// Column is one column's statistics.
	Column = catalog.Column
	// SchemaConfig parameterizes synthetic schema generation.
	SchemaConfig = catalog.Config
)

// Queries and join graphs.
type (
	// Query is an N-relation equi-join query with an optional ORDER BY.
	Query = query.Query
	// Pred is an equi-join predicate.
	Pred = query.Pred
	// OrderSpec requests sorted output on a relation column.
	OrderSpec = query.OrderSpec
	// Filter is a local range selection "column < Bound".
	Filter = query.Filter
	// Edge is an undirected join-graph edge.
	Edge = query.Edge
)

// Plans and statistics.
type (
	// Plan is a physical execution plan tree.
	Plan = plan.Plan
	// Stats reports optimization overheads: simulated memory, wall time and
	// plans costed.
	Stats = dp.Stats
	// QualitySummary is the paper's plan-quality distribution
	// (Ideal/Good/Acceptable/Bad, worst case W, geometric mean ρ).
	QualitySummary = quality.Summary
)

// Workloads.
type (
	// WorkloadSpec describes a workload template over a catalog.
	WorkloadSpec = workload.Spec
	// Topology identifies a join-graph template.
	Topology = workload.Topology
)

// Workload topologies.
const (
	Chain     = workload.Chain
	Star      = workload.Star
	Cycle     = workload.Cycle
	Clique    = workload.Clique
	StarChain = workload.StarChain
	Custom    = workload.Custom
	Snowflake = workload.Snowflake
)

// DefaultBudget is the paper's 1 GB memory feasibility budget.
const DefaultBudget = memo.DefaultBudget

// ErrBudget reports that an optimization exceeded its memory budget — the
// paper's infeasible ("*") outcome. Test with errors.Is.
var ErrBudget = memo.ErrBudget

// NewSchema generates a synthetic schema with statistics from cfg.
func NewSchema(cfg SchemaConfig) (*Catalog, error) { return catalog.Synthetic(cfg) }

// DefaultSchemaConfig is the paper's base schema configuration: 25
// relations, geometric cardinalities, 24 columns each, one index per
// relation.
func DefaultSchemaConfig() SchemaConfig { return catalog.DefaultConfig() }

// PaperSchema returns the paper's base 25-relation schema.
func PaperSchema() *Catalog { return workload.PaperSchema() }

// SkewedSchema returns the base schema with exponentially skewed columns.
func SkewedSchema() *Catalog { return workload.SkewedSchema() }

// ExtendedSchema returns the enlarged schema of the maximum-scaleup
// experiment.
func ExtendedSchema(numRelations int) *Catalog { return workload.ExtendedSchema(numRelations) }

// NewQuery builds and validates a query over catalog relations rels with
// the given join predicates and optional ORDER BY. The join graph must be
// connected; implied edges from shared join columns are added
// automatically.
func NewQuery(cat *Catalog, rels []int, preds []Pred, orderBy *OrderSpec) (*Query, error) {
	return query.New(cat, rels, preds, orderBy)
}

// NewFilteredQuery is NewQuery with local range selections, which drive
// access-path selection (index range scans).
func NewFilteredQuery(cat *Catalog, rels []int, preds []Pred, filters []Filter, orderBy *OrderSpec) (*Query, error) {
	return query.NewFiltered(cat, rels, preds, filters, orderBy)
}

// Topology edge generators for hand-built queries.
var (
	ChainEdges     = query.ChainEdges
	StarEdges      = query.StarEdges
	CycleEdges     = query.CycleEdges
	CliqueEdges    = query.CliqueEdges
	StarChainEdges = query.StarChainEdges
	SnowflakeEdges = query.SnowflakeEdges
)

// Instances samples count query instances of the workload template.
func Instances(spec WorkloadSpec, count int) ([]*Query, error) {
	return workload.Instances(spec, count)
}

// DPOptions configures exhaustive dynamic programming.
type DPOptions struct {
	// Budget is the simulated-memory feasibility limit in bytes
	// (0 = unlimited).
	Budget int64
	// Ctx, if non-nil, bounds the optimization: cancellation or an expired
	// deadline aborts the enumeration with ErrCanceled (distinct from the
	// budget's ErrBudget — a deadline is a serving concern, a budget a
	// feasibility measurement).
	Ctx context.Context
	// Workers is ignored: enumeration is sequential.
	//
	// Deprecated: parallel enumeration was removed; the field stays only so
	// existing callers compile, and will be deleted.
	Workers int
	// Obs receives metrics; nil falls back to the process-wide default
	// observer (see SetDefaultObserver).
	Obs *Observer
}

// OptimizeDP finds the optimal plan by exhaustive dynamic programming —
// the paper's DP baseline. It fails with ErrBudget beyond the feasibility
// cliff (a ~17-relation star under the default 1 GB budget).
func OptimizeDP(q *Query, opts DPOptions) (*Plan, Stats, error) {
	return dp.Optimize(q, dp.Options{Budget: opts.Budget, Ctx: opts.Ctx, Obs: opts.Obs})
}

// IDPOptions configures Iterative Dynamic Programming.
type IDPOptions = idp.Options

// IDPDefaults returns the paper's IDP configuration:
// IDP1-balanced-bestRow with k=7 and 5 % ballooning.
func IDPDefaults() IDPOptions { return idp.DefaultOptions() }

// OptimizeIDP runs Iterative Dynamic Programming, the strongest prior
// heuristic the paper compares against.
func OptimizeIDP(q *Query, opts IDPOptions) (*Plan, Stats, error) {
	return idp.Optimize(q, opts)
}

// SDP configuration re-exports.
type (
	// SDPConfig configures the SDP optimizer.
	SDPConfig = core.Options
	// SDPTrace records SDP's per-level pruning decisions.
	SDPTrace = core.Trace
)

// SDP option enums.
const (
	RootHub       = core.RootHub
	ParentHub     = core.ParentHub
	Option1       = core.Option1
	Option2       = core.Option2
	StrongSkyline = core.StrongSkyline
	LocalPruning  = core.Local
	GlobalPruning = core.Global
)

// SDPOptions returns the paper's adopted SDP configuration: root-hub
// partitioning with the Option-2 disjunctive pairwise skyline, locally
// applied to hub regions only.
func SDPOptions() SDPConfig { return core.DefaultOptions() }

// OptimizeSDP runs Skyline Dynamic Programming — the paper's contribution.
func OptimizeSDP(q *Query, opts SDPConfig) (*Plan, Stats, error) {
	return core.Optimize(q, opts)
}

// Explain renders a plan in a PostgreSQL-EXPLAIN-like format with the
// query's relation names.
func Explain(q *Query, p *Plan) string {
	return p.Explain(func(i int) string { return q.Relation(i).Name })
}

// PlanShape renders a plan's join structure on one line, e.g.
// "((R1 ⋈ R3) ⋈ R2)".
func PlanShape(q *Query, p *Plan) string {
	return p.Shape(func(i int) string { return q.Relation(i).Name })
}

// Summarize computes the paper's quality metrics over plan-cost ratios
// against an optimal (DP) reference.
func Summarize(ratios []float64) (QualitySummary, error) { return quality.Summarize(ratios) }

// ExperimentConfig parameterizes a harness experiment run.
type ExperimentConfig = harness.Config

// ExperimentInfo identifies one reproducible paper artifact.
type ExperimentInfo struct {
	ID    string
	Title string
}

// Experiments lists every reproducible table and figure.
func Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, len(harness.Registry))
	for i, e := range harness.Registry {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title}
	}
	return out
}

// RunExperiment reproduces one paper table or figure by id (e.g.
// "tab3.1") and returns its rendered output.
func RunExperiment(id string, cfg ExperimentConfig) (string, error) {
	e, err := harness.Lookup(id)
	if err != nil {
		return "", err
	}
	return e.Run(cfg)
}

// GreedyOptions configures Greedy Operator Ordering.
type GreedyOptions = greedy.Options

// OptimizeGreedy runs Greedy Operator Ordering (GOO): repeatedly join the
// pair of nodes with the smallest result cardinality. The cheapest and
// least reliable baseline.
func OptimizeGreedy(q *Query, opts GreedyOptions) (*Plan, Stats, error) {
	return greedy.Optimize(q, opts)
}

// RandomizedOptions configures the randomized searches.
type RandomizedOptions = randomized.Options

// Randomized algorithms.
const (
	IterativeImprovement = randomized.II
	SimulatedAnnealing   = randomized.SA
)

// OptimizeRandomized runs Iterative Improvement or Simulated Annealing
// over left-deep join trees — the "jettison DP entirely" alternatives the
// paper's introduction cites.
func OptimizeRandomized(q *Query, opts RandomizedOptions) (*Plan, Stats, error) {
	return randomized.Optimize(q, opts)
}

// GeneticOptions configures the GEQO-style genetic optimizer.
type GeneticOptions = genetic.Options

// OptimizeGenetic runs a GEQO-style genetic search (order crossover with
// connectivity repair, tournament selection, elitism).
func OptimizeGenetic(q *Query, opts GeneticOptions) (*Plan, Stats, error) {
	return genetic.Optimize(q, opts)
}

// Execution (validation harness).
type (
	// ExecDB is synthetic data generated from the catalog statistics, able
	// to execute plans.
	ExecDB = exec.DB
	// ResultTable is a materialized execution result.
	ResultTable = exec.Table
)

// GenerateData builds synthetic tuples for q's relations matching the
// catalog's cardinalities, distinct counts and skew. maxRows caps per-
// relation size — the executor validates optimizer behavior on scaled-down
// schemas, it is not a data warehouse.
func GenerateData(q *Query, seed int64, maxRows int) (*ExecDB, error) {
	return exec.Generate(q, seed, maxRows)
}

// EstimationError returns the signed log10 ratio of an estimated
// cardinality to the actual row count (0 = exact, 1 = 10× overestimate).
func EstimationError(estimated float64, actual int) float64 {
	return exec.EstimationError(estimated, actual)
}

// OptimizeIDP2 runs the IDP2 variant: a greedy initial plan iteratively
// improved by exhaustive DP over subtrees of at most K relations.
func OptimizeIDP2(q *Query, opts IDPOptions) (*Plan, Stats, error) {
	return idp.Optimize2(q, opts)
}

// JoinGraphDOT renders the query's join graph in Graphviz format (hubs
// double-circled, implied edges dashed).
func JoinGraphDOT(q *Query) string { return q.DOT() }

// PlanDOT renders a plan tree in Graphviz format.
func PlanDOT(q *Query, p *Plan) string {
	return p.DOT(func(i int) string { return q.Relation(i).Name })
}

// ParseSQL builds a query from SQL text against the catalog. The dialect
// covers the optimizer's query class: SELECT * over comma-joined tables
// with equi-join predicates, "col < N" range filters, and an optional
// ORDER BY. Everything Query.SQL emits round-trips.
func ParseSQL(cat *Catalog, src string) (*Query, error) {
	return parse.SQL(cat, src)
}

// TPCHSchema returns the TPC-H benchmark schema at the given scale factor
// (SF 1 = the canonical 6-million-row LINEITEM), with the columns the
// modeled queries touch.
func TPCHSchema(sf float64) (*Catalog, error) { return tpch.Schema(sf) }

// TPCHQuery builds one of the modeled TPC-H join graphs ("Q2", "Q5",
// "Q8", "Q9", "Q10") against a TPCHSchema catalog. Q8 and Q9 are the
// star-chain shapes the paper's introduction cites.
func TPCHQuery(cat *Catalog, name string) (*Query, error) { return tpch.Query(cat, name) }

// TPCHQueryNames lists the modeled TPC-H queries.
func TPCHQueryNames() []string { return tpch.Names() }

// EnumerateInstances walks the workload's relation combinations in
// lexicographic order — the paper's full combinatorial enumeration — up to
// limit instances (0 = all). Star and StarChain only.
func EnumerateInstances(spec WorkloadSpec, limit int) ([]*Query, error) {
	return workload.Enumerate(spec, limit)
}

// Observability. An Observer carries a metrics registry every optimizer
// layer reports to when one is installed (telemetry is off — and free — by
// default). Per-run detail lives in span trees instead: see TraceRun.
type (
	// Observer carries a metrics registry.
	Observer = obs.Observer
	// MetricsRegistry holds atomic counters, gauges and duration
	// histograms, and renders Prometheus text exposition.
	MetricsRegistry = obs.Registry
)

// NewObserver returns an observer over a fresh metrics registry.
func NewObserver() *Observer { return obs.New() }

// SetDefaultObserver installs the process-wide observer every optimization
// without an explicit one reports to (nil disables telemetry, the default).
func SetDefaultObserver(o *Observer) { obs.SetDefault(o) }

// DefaultObserver returns the process-wide observer, or nil.
func DefaultObserver() *Observer { return obs.Default() }

// Cardinality-error robustness (see internal/ce): optimize under a lying
// estimator, re-cost under truth, report ρ-under-error per technique.
type (
	// Estimator is the cost model's pluggable cardinality-estimation
	// boundary.
	Estimator = cost.Estimator
	// RobustConfig parameterizes a robustness evaluation.
	RobustConfig = ce.Config
	// RobustReport is a full robustness evaluation result.
	RobustReport = ce.Report
	// RobustTopoSpec selects one join-graph family for the sweep.
	RobustTopoSpec = ce.TopoSpec
	// ErrorMode selects which estimates the error injector corrupts.
	ErrorMode = ce.Mode
)

// Error-injection modes.
const (
	ErrorModeRelation  = ce.ModeRelation
	ErrorModePredicate = ce.ModePredicate
	ErrorModeBoth      = ce.ModeBoth
)

// ParseErrorMode parses a -mode flag value (relation|predicate|both).
func ParseErrorMode(s string) (ErrorMode, error) { return ce.ParseMode(s) }

// RunRobustness executes the robustness sweep described by cfg.
func RunRobustness(cfg RobustConfig) (*RobustReport, error) { return ce.Evaluate(cfg) }

// DegradeStats returns a deep copy of cat with each column's ANALYZE
// statistics independently lost with probability 1-health,
// deterministically in seed (see ce.DegradeCatalog).
func DegradeStats(cat *Catalog, health float64, seed int64) (*Catalog, error) {
	return ce.DegradeCatalog(cat, health, seed)
}
