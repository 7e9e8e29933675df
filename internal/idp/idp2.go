package idp

import (
	"fmt"
	"math"
	"time"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// Optimize2 runs IDP2, the second family of Kossmann & Stocker's iterative
// dynamic programming: instead of bottom-up DP blocks (IDP1), IDP2 first
// builds a complete plan with a cheap greedy heuristic, then repeatedly
// selects a subtree spanning at most K base relations and re-optimizes
// those relations exhaustively with DP, splicing the DP-optimal subplan
// back in, until no subtree improves. IDP2 does more, cheaper iterations
// than IDP1 and was the scalability-oriented variant.
func Optimize2(q *query.Query, opts Options) (*plan.Plan, dp.Stats, error) {
	if opts.K < 2 {
		return nil, dp.Stats{}, fmt.Errorf("idp: block size K=%d must be at least 2", opts.K)
	}
	model := opts.Model
	if model == nil {
		model = cost.NewModel(q, cost.DefaultParams())
	}
	ob := obs.Or(opts.Obs)
	label := fmt.Sprintf("IDP2(%d)", opts.K)
	cIters := ob.Counter(obs.MIDPIterations)
	p, st, err := optimize2(q, opts, model, ob, label, cIters)
	dp.ObserveRun(ob, label, st)
	return p, st, err
}

func optimize2(q *query.Query, opts Options, model *cost.Model, ob *obs.Observer, label string, cIters *obs.Counter) (*plan.Plan, dp.Stats, error) {
	started := time.Now()
	costedAtStart := model.PlansCosted
	var agg dp.Stats

	// Phase 1: greedy initial plan — join the connected pair with minimum
	// result cardinality (GOO), using the cheapest operator each time.
	nodes := make([]*plan.Plan, 0, q.NumRelations())
	for i := 0; i < q.NumRelations(); i++ {
		paths := model.AccessPaths(i)
		best := paths[0]
		for _, p := range paths[1:] {
			if p.Cost < best.Cost {
				best = p
			}
		}
		nodes = append(nodes, best)
	}
	for len(nodes) > 1 {
		if err := dp.CtxErr(opts.Ctx); err != nil {
			return nil, finish(agg, model, costedAtStart, started), err
		}
		bi, bj := -1, -1
		bestRows := math.Inf(1)
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				if !q.Connected(nodes[i].Rels, nodes[j].Rels) {
					continue
				}
				rows := model.SetRows(nodes[i].Rels.Union(nodes[j].Rels))
				if rows < bestRows {
					bi, bj, bestRows = i, j, rows
				}
			}
		}
		if bi < 0 {
			return nil, finish(agg, model, costedAtStart, started), fmt.Errorf("idp: disconnected join graph")
		}
		joined := model.CheapestJoin(nodes[bi], nodes[bj], q.PredsBetween(nodes[bi].Rels, nodes[bj].Rels), bestRows)
		nodes = append(nodes[:bj], nodes[bj+1:]...)
		nodes[bi] = joined
	}
	current := nodes[0]

	// Phase 2: iterative subtree re-optimization. Each pass enumerates the
	// maximal subtrees spanning ≤ K relations and re-plans the best
	// improvement via exhaustive DP over the subtree's leaves.
	improved := true
	for improved {
		improved = false
		for _, sub := range subtreesUpTo(current, opts.K) {
			if err := dp.CtxErr(opts.Ctx); err != nil {
				return nil, finish(agg, model, costedAtStart, started), err
			}
			replanned, stats, err := replanSubtree(q, model, ob, current, sub, opts.Budget)
			accumulate(&agg, stats)
			if err != nil {
				return nil, finish(agg, model, costedAtStart, started), err
			}
			if replanned.Cost < current.Cost*(1-1e-12) {
				current = replanned
				improved = true
				break // restart subtree enumeration on the new plan
			}
		}
		cIters.Add(1)
	}

	// Final ORDER BY handling mirrors the engine's Finalize.
	if q.OrderBy != nil {
		ec := q.OrderEqClass()
		if ec < 0 {
			current = model.SortPlan(current, 0)
		} else if current.Order != ec {
			current = model.SortPlan(current, ec)
		}
	}
	return current, finish(agg, model, costedAtStart, started), nil
}

// subtreesUpTo collects the join subtrees of p spanning at most k base
// relations, largest first so re-optimization prefers big wins.
func subtreesUpTo(p *plan.Plan, k int) []*plan.Plan {
	var out []*plan.Plan
	var walk func(*plan.Plan)
	walk = func(n *plan.Plan) {
		if n == nil || n.Op.IsScan() {
			return
		}
		if n.Op.IsJoin() && n.Rels.Len() <= k {
			out = append(out, n)
			return // children are strictly smaller; the parent suffices
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(p)
	return out
}

// replanSubtree re-optimizes the base relations under sub with exhaustive
// DP — an engine over just those relations, run to the top — and splices the
// optimal subplan into a rebuilt tree.
func replanSubtree(q *query.Query, model *cost.Model, ob *obs.Observer, root, sub *plan.Plan, budget int64) (*plan.Plan, dp.Stats, error) {
	leaves := make([]dp.Leaf, 0, sub.Rels.Len())
	sub.Rels.Each(func(i int) { leaves = append(leaves, dp.Leaf{Set: bits.Single(i)}) })
	e, err := dp.NewEngine(q, leaves, dp.Options{Budget: budget, Model: model, Obs: ob})
	if e == nil {
		return nil, dp.Stats{}, err
	}
	// Deferred, Release runs after the returned e.Stats() is evaluated.
	defer e.Release()
	if err == nil {
		err = e.Run(len(leaves))
	}
	if err != nil {
		return nil, e.Stats(), err
	}
	best := e.Memo.Best(e.Memo.Get(sub.Rels))
	return rebuildWith(q, model, root, sub, best), e.Stats(), nil
}

// rebuildWith returns root with the subtree sub replaced by repl,
// re-costing every ancestor join with the same operator choices refreshed
// (the cheapest operator for each ancestor is re-selected since its input
// changed).
func rebuildWith(q *query.Query, model *cost.Model, root, sub *plan.Plan, repl *plan.Plan) *plan.Plan {
	if root == sub {
		return repl
	}
	if root.Op.IsScan() {
		return root
	}
	if root.Op == plan.Sort {
		child := rebuildWith(q, model, root.Left, sub, repl)
		if child == root.Left {
			return root
		}
		return model.SortPlan(child, root.Order)
	}
	left := rebuildWith(q, model, root.Left, sub, repl)
	right := root.Right
	if left == root.Left {
		right = rebuildWith(q, model, root.Right, sub, repl)
		if right == root.Right {
			return root
		}
	}
	// For indexed nested loops the inner is a synthesized index scan that
	// never contains sub; only re-cost with the (possibly) new outer.
	rows := model.SetRows(left.Rels.Union(right.Rels))
	return model.CheapestJoin(left, right, q.PredsBetween(left.Rels, right.Rels), rows)
}
