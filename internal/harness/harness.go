// Package harness reproduces the paper's experiments: one runner per table
// and figure, each generating the workload, executing the competing
// optimizers, and rendering the paper's table layout.
//
// Every runner is deterministic in its Config. Instance counts default to
// sample sizes that reproduce the paper's percentage distributions in
// minutes rather than the paper's full combinatorial enumeration (see
// DESIGN.md, Substitutions); they scale up via Config.Instances.
package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"sdpopt/internal/core"
	"sdpopt/internal/dp"
	"sdpopt/internal/idp"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
	"sdpopt/internal/quality"
	"sdpopt/internal/query"
	"sdpopt/internal/tech"
	"sdpopt/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Instances is the number of query instances per workload template;
	// 0 selects each experiment's default.
	Instances int
	// Seed drives workload sampling.
	Seed int64
	// Budget is the simulated-memory feasibility limit; 0 selects the
	// paper's 1 GB.
	Budget int64
	// Skewed selects the exponentially-skewed schema variant.
	Skewed bool
	// Workers is the number of concurrent optimizations (0 or 1 = serial).
	// Parallel runs keep all results identical but inflate the per-instance
	// wall-time measurements under CPU contention.
	Workers int
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c Config) budget() int64 {
	if c.Budget == 0 {
		return memo.DefaultBudget
	}
	return c.Budget
}

func (c Config) instances(def int) int {
	if c.Instances == 0 {
		return def
	}
	return c.Instances
}

func (c Config) schema() *workload.Spec {
	cat := workload.PaperSchema()
	if c.Skewed {
		cat = workload.SkewedSchema()
	}
	return &workload.Spec{Cat: cat, Seed: c.Seed}
}

// Technique is one optimizer configuration under comparison.
type Technique struct {
	Name string
	Run  func(q *query.Query) (*plan.Plan, dp.Stats, error)
}

// Standard technique constructors. Each closes over the budget so
// infeasibility surfaces as memo.ErrBudget.

// tableRow labels one tech table entry — a served technique at its default
// configuration — as a harness row.
func tableRow(label, name string, o tech.Options) Technique {
	return Technique{Name: label, Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
		return tech.Run(context.TODO(), name, q, o)
	}}
}

// TechDP is exhaustive dynamic programming.
func TechDP(budget int64) Technique {
	return tableRow("DP", tech.DP, tech.Options{Budget: budget})
}

// TechIDP is IDP1-balanced-bestRow with the given block size.
func TechIDP(k int, budget int64) Technique {
	return Technique{Name: fmt.Sprintf("IDP(%d)", k), Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
		opts := idp.DefaultOptions()
		opts.K = k
		opts.Budget = budget
		return idp.Optimize(q, opts)
	}}
}

// TechIDP2 is IDP2 (greedy-then-re-optimize subtree passes) at the default
// block size.
func TechIDP2(budget int64) Technique {
	return tableRow(fmt.Sprintf("IDP2(%d)", idp.DefaultOptions().K), tech.IDP2, tech.Options{Budget: budget})
}

// TechGOO is greedy operator ordering. It takes no budget: greedy's memory
// is linear in the query, so it is feasible on every workload the harness
// can generate.
func TechGOO() Technique { return tableRow("GOO", tech.Greedy, tech.Options{}) }

// TechSDP is SDP with the paper's default configuration.
func TechSDP(budget int64) Technique {
	return tableRow("SDP", tech.SDP, tech.Options{Budget: budget})
}

// TechSDPVariant is SDP with explicit options, for the ablations.
func TechSDPVariant(name string, opts core.Options, budget int64) Technique {
	return Technique{Name: name, Run: func(q *query.Query) (*plan.Plan, dp.Stats, error) {
		opts := opts
		opts.Budget = budget
		return core.Optimize(q, opts)
	}}
}

// TechOutcome aggregates one technique's results over a query batch.
type TechOutcome struct {
	Name string
	// Feasible is false when any instance exceeded the memory budget — the
	// paper's "*" rows.
	Feasible bool
	// Reference marks the technique whose plans normalize the ratios.
	Reference bool
	// Ratios are per-instance plan-cost ratios to the reference.
	Ratios []float64
	// Summary is the quality distribution over Ratios.
	Summary quality.Summary
	// PeakMemMB is the maximum simulated memory over instances, in MB.
	PeakMemMB float64
	// MeanTime is the mean optimization wall time per instance.
	MeanTime time.Duration
	// MeanCosted is the mean number of plans costed per instance.
	MeanCosted float64
	// MeanPairsConsidered and MeanPairsConnected are the mean enumerator
	// pair counts per instance: candidate pairs examined, and pairs that
	// passed the disjoint+connected filter. Their ratio measures how much
	// of the enumeration loop the adjacency index skips.
	MeanPairsConsidered float64
	MeanPairsConnected  float64
}

// Batch is the outcome of running several techniques over one workload.
type Batch struct {
	Graph     string
	Instances int
	Reference string
	Outcomes  []TechOutcome
}

// RunBatch optimizes every query with every technique, serially. The
// reference technique (by name) supplies the per-instance baseline cost;
// reference ratios use strict summarizing (it must win), others use
// relative summarizing. A technique that exceeds the budget on any
// instance is marked infeasible, mirroring the paper's "*" entries.
func RunBatch(graph string, qs []*query.Query, techs []Technique, reference string) (*Batch, error) {
	return RunBatchWorkers(graph, qs, techs, reference, 1)
}

// RunBatchWorkers is RunBatch with up to workers concurrent optimizations.
// Every (technique, instance) pair is independent — each run builds its
// own cost model and memo — so parallelism only affects wall-clock time;
// note that the per-instance Elapsed measurements inflate under CPU
// contention, so timing-sensitive overhead tables should run serially.
func RunBatchWorkers(graph string, qs []*query.Query, techs []Technique, reference string, workers int) (*Batch, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("harness: empty workload")
	}
	refIdx := -1
	for i, t := range techs {
		if t.Name == reference {
			refIdx = i
		}
	}
	if refIdx < 0 {
		return nil, fmt.Errorf("harness: reference %q not among techniques", reference)
	}
	if workers < 1 {
		workers = 1
	}

	// Harness telemetry goes to the process-wide observer; the techniques'
	// engine runs pick it up themselves through the same default.
	ob := obs.Default()
	ob.Counter(obs.MBatches).Add(1)
	gQueue := ob.Gauge(obs.MQueueDepth)
	techHists := make([]*obs.Histogram, len(techs))
	for i, t := range techs {
		techHists[i] = ob.Histogram(obs.Label(obs.MTechniqueSeconds, "tech", t.Name), obs.SecondsBuckets)
	}

	type cell struct {
		plan  *plan.Plan
		stats dp.Stats
	}
	results := make([][]cell, len(techs))
	feasible := make([]bool, len(techs))
	ran := make([]int, len(techs))
	var firstErr error

	// Feasibility probes run first, serially per technique: one budget
	// abort marks the technique infeasible for the whole workload (the
	// instances differ only in sampled relations, not search-space size)
	// and skips its remaining instances.
	for ti := range techs {
		results[ti] = make([]cell, len(qs))
		feasible[ti] = true
		p, stats, err := techs[ti].Run(qs[0])
		results[ti][0] = cell{p, stats}
		ran[ti] = 1
		techHists[ti].Observe(stats.Elapsed.Seconds())
		if err != nil {
			if !errors.Is(err, memo.ErrBudget) {
				return nil, fmt.Errorf("harness: %s on instance 0: %w", techs[ti].Name, err)
			}
			feasible[ti] = false
		}
	}

	// Remaining (technique, instance) pairs fan out over the worker pool.
	type job struct{ ti, qi int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				gQueue.Add(-1)
				p, stats, err := techs[j.ti].Run(qs[j.qi])
				techHists[j.ti].Observe(stats.Elapsed.Seconds())
				mu.Lock()
				results[j.ti][j.qi] = cell{p, stats}
				if j.qi+1 > ran[j.ti] {
					ran[j.ti] = j.qi + 1
				}
				if err != nil {
					if errors.Is(err, memo.ErrBudget) {
						feasible[j.ti] = false
					} else if firstErr == nil {
						firstErr = fmt.Errorf("harness: %s on instance %d: %w", techs[j.ti].Name, j.qi, err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for ti := range techs {
		if !feasible[ti] {
			continue
		}
		for qi := 1; qi < len(qs); qi++ {
			gQueue.Add(1)
			jobs <- job{ti, qi}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// A budget abort discovered mid-pool truncates that technique's usable
	// prefix to the instances that completed with plans.
	for ti := range techs {
		if feasible[ti] {
			continue
		}
		n := 0
		for qi := 0; qi < len(qs); qi++ {
			if results[ti][qi].plan == nil {
				break
			}
			n = qi + 1
		}
		if n == 0 {
			n = 1 // keep the probe's stats visible
		}
		ran[ti] = n
	}
	if !feasible[refIdx] {
		return nil, fmt.Errorf("harness: reference %s infeasible on this workload", reference)
	}

	b := &Batch{Graph: graph, Instances: len(qs), Reference: reference}
	for ti, t := range techs {
		out := TechOutcome{Name: t.Name, Feasible: feasible[ti], Reference: ti == refIdx}
		var totalTime time.Duration
		var totalCosted, totalPairsCons, totalPairsConn int64
		for qi := 0; qi < ran[ti]; qi++ {
			c := results[ti][qi]
			totalTime += c.stats.Elapsed
			totalCosted += c.stats.PlansCosted
			totalPairsCons += c.stats.PairsConsidered
			totalPairsConn += c.stats.PairsConnected
			if mb := c.stats.Memo.PeakMB(); mb > out.PeakMemMB {
				out.PeakMemMB = mb
			}
			if out.Feasible {
				out.Ratios = append(out.Ratios, c.plan.Cost/results[refIdx][qi].plan.Cost)
			}
		}
		out.MeanTime = totalTime / time.Duration(ran[ti])
		out.MeanCosted = float64(totalCosted) / float64(ran[ti])
		out.MeanPairsConsidered = float64(totalPairsCons) / float64(ran[ti])
		out.MeanPairsConnected = float64(totalPairsConn) / float64(ran[ti])
		if out.Feasible {
			var err error
			if out.Reference {
				out.Summary, err = quality.Summarize(out.Ratios)
			} else {
				out.Summary, err = quality.SummarizeRelative(out.Ratios)
			}
			if err != nil {
				return nil, fmt.Errorf("harness: summarizing %s: %w", t.Name, err)
			}
		}
		b.Outcomes = append(b.Outcomes, out)
	}
	return b, nil
}

// wallTime renders a measured duration, rounded to unit, as a table cell.
// Every wall-time cell of an experiment table goes through it, so the
// experiment golden can swap it for a fixed-width token.
var wallTime = func(d, unit time.Duration) string { return d.Round(unit).String() }

// QualityTable renders the batch as a paper-style plan-quality table.
func (b *Batch) QualityTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-8s %s\n", "Join Graph", "Tech", quality.Header())
	for _, o := range b.Outcomes {
		if !o.Feasible {
			fmt.Fprintf(&sb, "%-16s %-8s %s\n", b.Graph, o.Name, "*  (exceeds memory budget)")
			continue
		}
		fmt.Fprintf(&sb, "%-16s %-8s %s\n", b.Graph, o.Name, o.Summary.Row())
	}
	return sb.String()
}

// OverheadTable renders the batch as a paper-style overhead table
// (memory / time / plans costed).
func (b *Batch) OverheadTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-8s %12s %12s %12s\n", "Join Graph", "Tech", "Memory(MB)", "Time", "Costing")
	for _, o := range b.Outcomes {
		mark := ""
		if !o.Feasible {
			mark = " *"
		}
		fmt.Fprintf(&sb, "%-16s %-8s %12.2f %12s %12s%s\n",
			b.Graph, o.Name, o.PeakMemMB, wallTime(o.MeanTime, time.Microsecond),
			quality.FormatCount(int64(o.MeanCosted)), mark)
	}
	return sb.String()
}

// AddInfeasible prepends a static infeasible row — used for techniques the
// feasibility probes already place beyond the budget (the paper's "*"
// entries), sparing the batch from grinding each instance to the abort.
func (b *Batch) AddInfeasible(name string) {
	b.Outcomes = append([]TechOutcome{{Name: name, Feasible: false}}, b.Outcomes...)
}

// Outcome returns the named technique's outcome, or nil.
func (b *Batch) Outcome(name string) *TechOutcome {
	for i := range b.Outcomes {
		if b.Outcomes[i].Name == name {
			return &b.Outcomes[i]
		}
	}
	return nil
}
