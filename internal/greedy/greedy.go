// Package greedy implements Greedy Operator Ordering (GOO), the classic
// O(n³) bottom-up greedy heuristic: repeatedly join the pair of current
// nodes whose result has the smallest cardinality until one tree remains.
//
// GOO is the cheapest member of the heuristic family the paper's
// evaluation space sits in; it serves as a lower anchor for the
// quality/effort tradeoff (Figure 1.2-style comparisons): almost no
// optimization effort, no optimality guarantee, bushy trees allowed.
package greedy

import (
	"context"
	"fmt"
	"time"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// Options configures a GOO run.
type Options struct {
	// Model supplies costing; if nil a fresh default model is created.
	Model *cost.Model
	// Ctx carries cancellation and the active trace span; nil disables
	// both. GOO polls it once per merge step.
	Ctx context.Context
	// Obs receives the optimize metrics every other engine records; nil
	// disables observation.
	Obs *obs.Observer
}

// Optimize runs Greedy Operator Ordering on q. It reports through the same
// channels as the enumeration engines — Stats pairs counters, optimize
// metrics under the "GOO" label, and a span child when opts.Ctx carries a
// trace — so routed fast-path requests show up in traces and trace
// summaries like any other serve.
func Optimize(q *query.Query, opts Options) (*plan.Plan, dp.Stats, error) {
	model := opts.Model
	if model == nil {
		model = cost.NewModel(q, cost.DefaultParams())
	}
	started := time.Now()
	costedAtStart := model.PlansCosted
	var pairsConsidered, pairsConnected int64

	sp := span.FromContext(opts.Ctx).Child("goo.order")
	done := func(p *plan.Plan, st dp.Stats, err error) (*plan.Plan, dp.Stats, error) {
		sp.Add("pairs_considered", st.PairsConsidered)
		sp.Add("pairs_connected", st.PairsConnected)
		sp.Add("plans_costed", st.PlansCosted)
		if err != nil {
			sp.FinishErr(err)
		} else {
			sp.Finish()
		}
		dp.ObserveRun(obs.Or(opts.Obs), "GOO", st)
		return p, st, err
	}

	type node struct {
		set bits.Set
		pl  *plan.Plan
	}
	nodes := make([]node, q.NumRelations())
	for i := range nodes {
		paths := model.AccessPaths(i)
		best := paths[0]
		for _, p := range paths[1:] {
			if p.Cost < best.Cost {
				best = p
			}
		}
		nodes[i] = node{set: bits.Single(i), pl: best}
	}

	for len(nodes) > 1 {
		if err := dp.CtxErr(opts.Ctx); err != nil {
			return done(nil, stats(model, costedAtStart, started, pairsConsidered, pairsConnected), err)
		}
		bi, bj, bestRows := -1, -1, 0.0
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				pairsConsidered++
				if !q.Connected(nodes[i].set, nodes[j].set) {
					continue
				}
				pairsConnected++
				rows := model.SetRows(nodes[i].set.Union(nodes[j].set))
				if bi < 0 || rows < bestRows {
					bi, bj, bestRows = i, j, rows
				}
			}
		}
		if bi < 0 {
			return done(nil, stats(model, costedAtStart, started, pairsConsidered, pairsConnected),
				fmt.Errorf("greedy: disconnected join graph"))
		}
		a, b := nodes[bi], nodes[bj]
		best := model.CheapestJoin(a.pl, b.pl, q.PredsBetween(a.set, b.set), bestRows)
		merged := node{set: a.set.Union(b.set), pl: best}
		nodes = append(nodes[:bj], nodes[bj+1:]...)
		nodes[bi] = merged
	}

	result := nodes[0].pl
	if q.OrderBy != nil {
		ec := q.OrderEqClass()
		if ec < 0 {
			result = model.SortPlan(result, 0)
		} else if result.Order != ec {
			result = model.SortPlan(result, ec)
		}
	}
	return done(result, stats(model, costedAtStart, started, pairsConsidered, pairsConnected), nil)
}

func stats(model *cost.Model, costedAtStart int64, started time.Time, considered, connected int64) dp.Stats {
	return dp.Stats{
		// GOO keeps one plan per live node: simulated memory is a handful
		// of paths, reported through the same accounting constants.
		Memo: memo.Stats{
			PathsRetained: int64(0),
			PeakSimBytes:  int64(model.Q.NumRelations()) * memo.SimPathBytes,
			SimBytes:      memo.SimPathBytes,
		},
		PlansCosted:     model.PlansCosted - costedAtStart,
		PairsConsidered: considered,
		PairsConnected:  connected,
		Elapsed:         time.Since(started),
	}
}
