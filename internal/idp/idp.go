// Package idp implements Iterative Dynamic Programming (IDP), the best
// prior search-space heuristic the paper compares SDP against.
//
// IDP1 (Kossmann & Stocker) runs standard DP bottom-up until a block size k,
// commits the most promising size-k subplan as a new compound base relation,
// and restarts DP on the reduced problem, iterating until a complete plan
// emerges. The paper evaluates the strongest reported variant,
// IDP1-balanced-bestRow: block sizes balanced across iterations, and a
// hybrid evaluation that shortlists the top 5 % of size-k subplans by
// MinRows, greedily balloons each shortlisted subplan to a complete plan
// (again by MinRows), and commits the subplan whose ballooned completion is
// cheapest.
package idp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// Eval selects the plan-evaluation function used to rank size-k subplans —
// the basic functions studied in the IDP paper.
type Eval int

// Plan-evaluation functions.
const (
	// MinRows ranks subplans by fewest output rows ("Minimum Intermediate
	// Result"); the IDP paper's best performer and this package's default.
	MinRows Eval = iota
	// MinCost ranks subplans by cheapest cost.
	MinCost
	// MinSel ranks subplans by lowest output selectivity.
	MinSel
)

// String names the evaluation function.
func (e Eval) String() string {
	switch e {
	case MinRows:
		return "MinRows"
	case MinCost:
		return "MinCost"
	case MinSel:
		return "MinSel"
	}
	return fmt.Sprintf("Eval(%d)", int(e))
}

func (e Eval) score(c *memo.Class) float64 {
	switch e {
	case MinCost:
		return c.BestCost()
	case MinSel:
		return c.Sel
	default:
		return c.Rows
	}
}

// Options configures an IDP run.
type Options struct {
	// K is the DP block size: the number of levels enumerated per
	// iteration. The paper uses 4 and 7.
	K int
	// Balanced evens block sizes across iterations (IDP1-balanced) instead
	// of always using K.
	Balanced bool
	// Eval ranks candidate subplans; the paper's variant uses MinRows.
	Eval Eval
	// BalloonFrac is the fraction of top-ranked size-k subplans greedily
	// ballooned to complete plans before committing (the paper: 5 %).
	// Zero disables ballooning: the top-ranked subplan is committed
	// directly.
	BalloonFrac float64
	// Budget is the simulated-memory feasibility limit (0 = unlimited).
	Budget int64
	// Ctx, if non-nil, bounds the optimization; cancellation aborts with
	// dp.ErrCanceled (see dp.Options.Ctx).
	Ctx context.Context
	// Model supplies costing; if nil a fresh default model is created.
	Model *cost.Model
	// Obs selects the observer for metrics; nil falls back to the process-wide
	// default (obs.Default), which is off by default.
	Obs *obs.Observer
}

// DefaultOptions returns the paper's representative configuration:
// IDP1-balanced-bestRow with k=7 and 5 % ballooning.
func DefaultOptions() Options {
	return Options{K: 7, Balanced: true, Eval: MinRows, BalloonFrac: 0.05}
}

// Optimize runs IDP on q and returns the chosen plan with aggregated
// overhead statistics across all iterations.
func Optimize(q *query.Query, opts Options) (*plan.Plan, dp.Stats, error) {
	if opts.K < 2 {
		return nil, dp.Stats{}, fmt.Errorf("idp: block size K=%d must be at least 2", opts.K)
	}
	model := opts.Model
	if model == nil {
		model = cost.NewModel(q, cost.DefaultParams())
	}
	ob := obs.Or(opts.Obs)
	label := fmt.Sprintf("IDP(%d)", opts.K)
	cIters := ob.Counter(obs.MIDPIterations)
	p, st, err := func() (*plan.Plan, dp.Stats, error) {
		started := time.Now()
		costedAtStart := model.PlansCosted
		leaves := dp.BaseLeaves(q)
		var agg dp.Stats
		var cands []*memo.Class
		dpOpts := dp.Options{Budget: opts.Budget, Ctx: opts.Ctx, Model: model, Obs: ob, Label: label}
		for {
			block := opts.K
			if opts.Balanced {
				block = balancedBlock(len(leaves), opts.K)
			}
			p, next, err := iterate(q, model, leaves, block, opts, dpOpts, &cands, &agg)
			if err != nil {
				return nil, finish(agg, model, costedAtStart, started), err
			}
			cIters.Add(1)
			if next == nil {
				return p, finish(agg, model, costedAtStart, started), nil
			}
			leaves = next
		}
	}()
	dp.ObserveRun(ob, label, st)
	return p, st, err
}

// iterate runs one IDP1 iteration over leaves. When they fit in the block,
// DP runs to the top and iterate returns the plan; otherwise DP runs to the
// block's level, and iterate commits the selected subplan and returns the
// reduced leaf set. On every path it folds the engine's stats into agg and
// then releases the engine's memo. cands is selectSubplan's buffer.
func iterate(q *query.Query, model *cost.Model, leaves []dp.Leaf, block int, opts Options, dpOpts dp.Options, cands *[]*memo.Class, agg *dp.Stats) (*plan.Plan, []dp.Leaf, error) {
	e, err := dp.NewEngine(q, leaves, dpOpts)
	if e == nil {
		return nil, nil, err
	}
	defer func() {
		accumulate(agg, e.Stats())
		e.Release()
	}()
	if err != nil {
		return nil, nil, err
	}
	if len(leaves) <= block {
		// Final iteration: DP runs to the top.
		if err := e.Run(len(leaves)); err != nil {
			return nil, nil, err
		}
		p, err := e.Finalize()
		return p, nil, err
	}
	if err := e.Run(block); err != nil {
		return nil, nil, err
	}
	chosen, err := selectSubplan(q, model, e.Memo, leaves, block, opts, cands)
	if err != nil {
		return nil, nil, err
	}
	return nil, commit(leaves, e.Memo, chosen), nil
}

// balancedBlock picks this iteration's block size so that the remaining
// iterations shrink the problem by near-equal amounts, never exceeding k.
// Each iteration of block size b reduces the leaf count by b-1.
func balancedBlock(remaining, k int) int {
	if remaining <= k {
		return remaining
	}
	iters := int(math.Ceil(float64(remaining-1) / float64(k-1)))
	b := 1 + int(math.Ceil(float64(remaining-1)/float64(iters)))
	if b > k {
		b = k
	}
	if b < 2 {
		b = 2
	}
	return b
}

// selectSubplan implements the hybrid evaluation: shortlist the top
// BalloonFrac of size-block classes under opts.Eval, balloon each to a
// complete plan greedily, and return the class whose completion is
// cheapest. buf is reused for the level's classes.
func selectSubplan(q *query.Query, model *cost.Model, m *memo.Memo, leaves []dp.Leaf, block int, opts Options, buf *[]*memo.Class) (*memo.Class, error) {
	*buf = m.AppendLevel((*buf)[:0], block)
	cands := *buf
	if len(cands) == 0 {
		return nil, fmt.Errorf("idp: no candidate subplans at level %d", block)
	}
	// Canonical set order breaks score ties: AppendLevel lists classes in
	// creation order, which depends on the enumeration strategy, and the
	// shortlist cut below must not.
	sort.SliceStable(cands, func(a, b int) bool {
		sa, sb := opts.Eval.score(cands[a]), opts.Eval.score(cands[b])
		if sa != sb {
			return sa < sb
		}
		return cands[a].Set.Less(cands[b].Set)
	})
	if opts.BalloonFrac <= 0 {
		return cands[0], nil
	}
	short := int(math.Ceil(opts.BalloonFrac * float64(len(cands))))
	if short < 1 {
		short = 1
	}
	if short > len(cands) {
		short = len(cands)
	}
	var best *memo.Class
	bestCost := math.Inf(1)
	for _, c := range cands[:short] {
		full := balloon(q, model, m.Best(c), c.Set, leaves, opts.Eval)
		if full.Cost < bestCost {
			bestCost = full.Cost
			best = c
		}
	}
	return best, nil
}

// balloon greedily extends plan cur over covered — a class's best plan — to
// a complete plan: at each step it joins the leaf (not yet covered) that
// minimizes the evaluation function of the grown composite, using the
// cheapest physical join. This is the IDP paper's "ballooning to complete
// plans".
func balloon(q *query.Query, model *cost.Model, cur *plan.Plan, covered bits.Set, leaves []dp.Leaf, eval Eval) *plan.Plan {
	for {
		remaining := false
		bestScore := math.Inf(1)
		var bestLeaf *dp.Leaf
		var bestRows float64
		for li := range leaves {
			l := &leaves[li]
			if covered.Overlaps(l.Set) {
				continue
			}
			remaining = true
			if !q.Connected(covered, l.Set) {
				continue
			}
			rows := model.SetRows(covered.Union(l.Set))
			score := rows
			switch eval {
			case MinSel:
				score = model.Selectivity(covered.Union(l.Set), rows)
			case MinCost:
				// Cost requires building the join; approximate the greedy
				// score by rows·1 plus current cost to stay cheap — the
				// true cost ranking happens below when the join is built.
				score = rows
			}
			if score < bestScore {
				bestScore = score
				bestLeaf = l
				bestRows = rows
			}
		}
		if !remaining {
			return cur
		}
		if bestLeaf == nil {
			// No connected leaf: cannot happen on connected join graphs.
			panic("idp: ballooning stuck on a connected graph")
		}
		leafPlan := bestLeafPlan(model, bestLeaf)
		cur = model.CheapestJoin(cur, leafPlan, q.PredsBetween(covered, bestLeaf.Set), bestRows)
		covered = covered.Union(bestLeaf.Set)
	}
}

func bestLeafPlan(model *cost.Model, l *dp.Leaf) *plan.Plan {
	paths := l.Plans
	if paths == nil {
		paths = model.AccessPaths(l.Set.Min())
	}
	best := paths[0]
	for _, p := range paths[1:] {
		if p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// commit replaces the leaves covered by the chosen class with one compound
// leaf carrying the class's retained plans, built from m: an IDP1 block's
// trees are built here, once per commit.
func commit(leaves []dp.Leaf, m *memo.Memo, chosen *memo.Class) []dp.Leaf {
	out := make([]dp.Leaf, 0, len(leaves))
	for _, l := range leaves {
		if !chosen.Set.Contains(l.Set) {
			out = append(out, l)
		}
	}
	return append(out, dp.Leaf{Set: chosen.Set, Plans: m.Paths(chosen)})
}

// accumulate folds one iteration's engine stats into the running aggregate:
// memory peaks take the maximum (each restart frees the previous memo, as the
// paper's in-PostgreSQL implementation does), counters — classes created and
// enumeration pairs — add across restarts. PlansCosted and Elapsed are
// ignored here; finish derives them from the shared model and start time.
func accumulate(agg *dp.Stats, s dp.Stats) {
	agg.Memo.ClassesCreated += s.Memo.ClassesCreated
	agg.Memo.ClassesAlive = s.Memo.ClassesAlive
	agg.Memo.PathsRetained = s.Memo.PathsRetained
	agg.Memo.SimBytes = s.Memo.SimBytes
	if s.Memo.PeakSimBytes > agg.Memo.PeakSimBytes {
		agg.Memo.PeakSimBytes = s.Memo.PeakSimBytes
	}
	agg.PairsConsidered += s.PairsConsidered
	agg.PairsConnected += s.PairsConnected
}

func finish(agg dp.Stats, model *cost.Model, costedAtStart int64, started time.Time) dp.Stats {
	agg.PlansCosted = model.PlansCosted - costedAtStart
	agg.Elapsed = time.Since(started)
	return agg
}
