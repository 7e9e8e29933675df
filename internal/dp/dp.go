// Package dp implements the classical bottom-up dynamic-programming join
// enumerator (DPsize), the search strategy of System R and PostgreSQL.
//
// Level 1 builds access paths for every leaf; level k joins every pair of
// disjoint memo classes whose leaf counts sum to k and that are connected by
// at least one join predicate — bushy trees included, cartesian products
// excluded. Each class retains the cheapest plan plus the cheapest plan per
// interesting order.
//
// The engine is the substrate the paper's three strategies share: plain DP
// runs it to the top; IDP runs it to level k, commits a subplan and
// restarts it on a reduced leaf set; IDP2 runs it over the relations of one
// plan subtree; SDP installs a per-level hook that prunes the memo with
// localized skylines. A leaf is normally one base relation, but IDP's
// compound relations enter as leaves covering several base relations with a
// pre-built access plan.
package dp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// ErrCanceled reports that an optimization was abandoned because its
// context was canceled or its deadline expired. It is deliberately distinct
// from memo.ErrBudget: a budget abort is a property of the query (the
// paper's infeasible "*" outcome, worth reporting and even caching a
// partial answer for), while cancellation is a property of the caller (a
// serving deadline), so the two map to different responses — the HTTP layer
// returns 504 for cancellation and a 200 budget report for ErrBudget. The
// returned error also wraps the context's cause, so errors.Is(err,
// context.DeadlineExceeded) works too. Test with errors.Is.
var ErrCanceled = errors.New("dp: optimization canceled")

// Leaf is one input node of the enumeration. Plans nil means the leaf is a
// single base relation whose access paths the engine generates; otherwise
// the provided plans (e.g. an IDP compound relation's committed plan) are
// used as the leaf's paths.
type Leaf struct {
	Set   bits.Set
	Plans []*plan.Plan
}

// LevelHook runs after each enumeration level with the classes newly
// created at that level, in canonical set order (so hook decisions — SDP's
// pruning — do not depend on the order the level joined its pairs in). It
// may prune classes from the memo (SDP) and may abort the optimization by
// returning an error.
type LevelHook func(level int, m *memo.Memo, created []*memo.Class) error

// SortClasses orders classes canonically by relation set — the order level
// hooks observe.
func SortClasses(cs []*memo.Class) {
	slices.SortFunc(cs, func(a, b *memo.Class) int { return a.Set.Compare(b.Set) })
}

// EnumMode selects the engine's candidate-pair source. Both modes walk the
// same levels, join exactly the same connected class pairs in the same order
// and produce bit-for-bit identical memos, plans and costing (the
// equivalence tests assert this); they differ only in how many pairs they
// look at to find those.
type EnumMode int

const (
	// EnumIndexed, the default, is the adjacency-indexed level walk: per-level
	// bitmap indexes gather each class's joinable partners, so no candidate is
	// generated and rejected and pairs_considered == pairs_connected.
	EnumIndexed EnumMode = iota
	// EnumNaive is the generate-and-filter reference loop: scan every class
	// pair per level and reject with Disjoint/Connected, recomputing the
	// neighborhood per pair. It is the equivalence oracle the indexed walk is
	// proven against, and ext.large's "DP-size" row.
	EnumNaive
)

// Options configures an engine run.
type Options struct {
	// Budget is the simulated-memory feasibility limit in bytes
	// (0 = unlimited). Exceeding it aborts with memo.ErrBudget.
	Budget int64
	// Ctx, if non-nil, bounds the optimization: the engine polls it at
	// every enumeration step and aborts with ErrCanceled (wrapping the
	// context cause) once it is done. This is how serving deadlines reach
	// the search without a second abort mechanism alongside the budget.
	Ctx context.Context
	// Hook, if non-nil, runs after every level.
	Hook LevelHook
	// Model supplies costing; if nil a fresh model with default parameters
	// is created. IDP passes one model across restarts so the plans-costed
	// counter accumulates.
	Model *cost.Model
	// LeftDeepOnly restricts enumeration to System R's classic space:
	// every join extends a composite by a single leaf, so no bushy trees.
	// Every connected set still materializes (a connected graph always has
	// a non-cut leaf to peel), but with fewer candidate plans per class.
	LeftDeepOnly bool
	// Obs receives metrics and trace events; nil falls back to the process
	// default observer (obs.Default), which is itself nil — telemetry off —
	// unless a CLI enabled it.
	Obs *obs.Observer
	// Label names the technique driving this engine in emitted telemetry
	// ("DP" when empty); IDP and SDP pass their own names so per-level
	// spans attribute effort to the right strategy.
	Label string
	// Enum selects the candidate-pair source; the zero value is the indexed
	// walk.
	Enum EnumMode
}

// Stats aggregates the overhead metrics of one optimization, matching the
// columns of the paper's overhead tables.
type Stats struct {
	Memo memo.Stats
	// PlansCosted counts candidate plans costed, the paper's "Costing (in
	// plans)" column.
	PlansCosted int64
	// PairsConsidered counts candidate class pairs the enumerator examined;
	// PairsConnected counts those that passed the disjoint+connected filter
	// and were actually joined. Connected pairs are a property of the search
	// space, identical across enumeration strategies; considered pairs
	// measure the strategy — the naive scan considers every pair, the
	// adjacency-indexed walk only the connected neighborhood, so the
	// considered:connected ratio is the enumerator's filtering efficiency.
	PairsConsidered int64
	PairsConnected  int64
	// Elapsed is the optimization wall time.
	Elapsed time.Duration
}

// Engine runs the level-wise enumeration over a fixed leaf set.
type Engine struct {
	Q        *query.Query
	Model    *cost.Model
	Memo     *memo.Memo
	ctx      context.Context
	leaves   []Leaf
	hook     LevelHook
	leftDeep bool
	enum     EnumMode

	// done is the highest completed level. Run resumes above it, so IDP's
	// block-wise Run(k) … Run(n) never re-joins a level.
	done int

	costedAtStart int64
	started       time.Time

	// The enumerator's working state: the adjacency walker, the level lists
	// (a split's left and right levels, and the classes the level created,
	// which the hook reads), the per-pair coster, the target class's
	// admission bar and the buffers the join kernel reuses across pairs (all
	// consumed before the next pair), and the run's pair counters (see
	// Stats).
	walker    memo.Walker
	left      []*memo.Class
	right     []*memo.Class
	created   []*memo.Class
	coster    cost.PairCoster
	bar       cost.Bar
	predBuf   []int
	admitted  []cost.JoinCand
	inA, inB  []cost.Input
	pairsCons int64
	pairsConn int64

	// Telemetry handles, resolved once at construction; all nil-safe.
	// (The per-level histogram is labeled by level and resolved per level —
	// a handful of lookups per run, not per event.)
	ob         *obs.Observer
	label      string
	cPlans     *obs.Counter
	cPairsCons *obs.Counter
	cPairsConn *obs.Counter
	// sp is the request span carried by opts.Ctx (nil when the caller is
	// not tracing): each completed level attaches one child span to it.
	sp *span.Span
}

// NewEngine prepares an engine and seeds level 1 of the memo. The leaves
// must be disjoint and their union a connected set of the query's relations:
// all of them for a whole query, a subtree's for IDP2's re-planning. When it
// returns an engine, with or without an error, its owner calls Release once
// it has read the memo and Stats for the last time.
func NewEngine(q *query.Query, leaves []Leaf, opts Options) (*Engine, error) {
	model := opts.Model
	if model == nil {
		model = cost.NewModel(q, cost.DefaultParams())
	}
	var covered bits.Set
	for _, l := range leaves {
		if l.Set.IsEmpty() {
			return nil, fmt.Errorf("dp: empty leaf")
		}
		if covered.Overlaps(l.Set) {
			return nil, fmt.Errorf("dp: leaf %v overlaps another leaf", l.Set)
		}
		covered = covered.Union(l.Set)
		if l.Plans == nil && l.Set.Len() != 1 {
			return nil, fmt.Errorf("dp: leaf %v has no plans but is not a base relation", l.Set)
		}
	}
	if !q.ConnectedSet(covered) {
		return nil, fmt.Errorf("dp: leaves cover %v, which is not a connected set of relations", covered)
	}
	ob := obs.Or(opts.Obs)
	label := opts.Label
	if label == "" {
		label = "DP"
	}
	e := &Engine{
		Q:             q,
		Model:         model,
		Memo:          memo.New(opts.Budget),
		ctx:           opts.Ctx,
		leaves:        leaves,
		hook:          opts.Hook,
		leftDeep:      opts.LeftDeepOnly,
		enum:          opts.Enum,
		done:          1,
		costedAtStart: model.PlansCosted,
		started:       time.Now(),
		ob:            ob,
		label:         label,
		cPlans:        ob.Counter(obs.MPlansCosted),
		cPairsCons:    ob.Counter(obs.MPairsConsidered),
		cPairsConn:    ob.Counter(obs.MPairsConnected),
		sp:            span.FromContext(opts.Ctx),
	}
	// Installed before any class exists so every creation site — the level-1
	// seed, joinDirect, IDP's compound leaves — caches its neighborhood for
	// the adjacency-indexed walk and its width for the kernel.
	e.Memo.Nbrs = q.Neighbors
	e.Memo.Model = model
	e.Memo.Observe(ob)
	lvStart := time.Now()
	prevCosted := model.PlansCosted
	err := e.seedLevel1()
	e.observeLevel(1, lvStart, prevCosted, 0, 0, len(leaves), err)
	if err != nil {
		// Return the engine so callers can still read overhead stats (a
		// budget abort is a reportable outcome, not a programming error).
		return e, err
	}
	return e, nil
}

// BaseLeaves returns the default leaf set: one leaf per base relation.
func BaseLeaves(q *query.Query) []Leaf {
	leaves := make([]Leaf, q.NumRelations())
	for i := range leaves {
		leaves[i] = Leaf{Set: bits.Single(i)}
	}
	return leaves
}

func (e *Engine) seedLevel1() error {
	for _, l := range e.leaves {
		rows := e.Model.SetRows(l.Set)
		c, err := e.Memo.NewClass(l.Set, 1, rows, e.Model.Selectivity(l.Set, rows))
		if err != nil {
			return err
		}
		paths := l.Plans
		if paths == nil {
			paths = e.Model.AccessPaths(l.Set.Min())
		}
		for _, p := range paths {
			if _, err := e.Memo.AddPlan(c, p); err != nil {
				return err
			}
		}
	}
	if e.hook != nil {
		e.created = e.Memo.AppendLevel(e.created[:0], 1)
		SortClasses(e.created)
		if err := e.hook(1, e.Memo, e.created); err != nil {
			return err
		}
	}
	return nil
}

// Release hands the engine's memo back for reuse (memo.Release) and drops
// it: the engine must not be used again, and a later read of e.Memo panics
// rather than see another optimization's classes. Release on a nil engine,
// or a second time, does nothing.
func (e *Engine) Release() {
	if e == nil || e.Memo == nil {
		return
	}
	e.Memo.Release()
	e.Memo = nil
}

// NumLeaves returns the size of the enumeration (its top level).
func (e *Engine) NumLeaves() int { return len(e.leaves) }

// CtxErr polls ctx (nil allowed), returning nil while it is live and an
// error wrapping both ErrCanceled and the context cause once it is done.
// Every optimizer layer that honors deadlines funnels through this one
// helper so errors.Is(err, ErrCanceled) identifies cancellation uniformly.
//
// A deadline that has passed counts as done even before ctx says so. The
// context learns of its deadline from a runtime timer whose callback needs a
// processor, and a CPU-bound optimizer goroutine on a loaded host can hold
// that callback off for milliseconds — longer than the reserve a routed
// request keeps for its greedy fallback. Reading the clock here makes the
// engine stop at its deadline rather than when the scheduler gets to it.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
	default:
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return fmt.Errorf("%w: %w", ErrCanceled, context.DeadlineExceeded)
	}
	return nil
}

// checkCtx polls the engine's context, turning cancellation into
// ErrCanceled. The Stats counters stay valid on this path — callers return
// e.Stats() exactly as on a budget abort, so a canceled run still reports
// its wall time, classes created and plans costed up to the abort point.
func (e *Engine) checkCtx() error { return CtxErr(e.ctx) }

// Run executes the enumeration levels above the last completed one up to
// toLevel (capped at the leaf count). On a budget error the memo is left
// as-is and memo.ErrBudget is returned. Each level — enumeration plus hook
// (SDP pruning) — is one observed span.
func (e *Engine) Run(toLevel int) error {
	if toLevel > len(e.leaves) {
		toLevel = len(e.leaves)
	}
	for k := e.done + 1; k <= toLevel; k++ {
		if err := e.checkCtx(); err != nil {
			return err
		}
		lvStart := time.Now()
		prevCosted := e.Model.PlansCosted
		prevCons, prevConn := e.pairsCons, e.pairsConn
		created, err := e.runLevel(k)
		if err == nil && e.hook != nil {
			SortClasses(created)
			err = e.hook(k, e.Memo, created)
		}
		e.observeLevel(k, lvStart, prevCosted, prevCons, prevConn, len(created), err)
		if err != nil {
			return err
		}
		e.done = k
	}
	return nil
}

// runLevel joins every pair of level k straight into the memo and returns
// the classes it created, in creation order, in the engine's buffer (valid
// until the next level). Pairs go in a fixed order: splits (i, k−i)
// ascending, left classes of level i in creation order, and each left
// class's partners at level k−i in creation order. The levels below k are
// frozen while k runs.
//
// EnumNaive is the retained generate-and-filter reference: it scans the
// whole partner level and rejects pair by pair, recomputing the
// neighborhood. The indexed walk gathers only the joinable partners, each
// connected to and disjoint from a by construction (the index masks both
// conditions), so there considered == connected and the Disjoint re-check is
// a belt-and-braces guard on the index, not a filter. Its minSeq cut on a
// same-level split is the naive right[ai+1:] slice — AppendLevel preserves
// creation order, so the alive classes after a are exactly those with larger
// Seq — and Gather returns the joinable subsequence of the level in creation
// order, so both modes join the same pairs in the same order (pairs the
// naive scan rejects have no side effects).
func (e *Engine) runLevel(k int) ([]*memo.Class, error) {
	maxSplit := k / 2
	if e.leftDeep {
		maxSplit = 1 // only (1, k-1) splits: a leaf extends a composite
	}
	e.created = e.created[:0]
	for i := 1; i <= maxSplit; i++ {
		j := k - i
		e.left = e.Memo.AppendLevel(e.left[:0], i)
		left, right := e.left, e.left
		if e.enum == EnumNaive && j != i {
			e.right = e.Memo.AppendLevel(e.right[:0], j)
			right = e.right
		}
		for ai, a := range left {
			// Poll per left class: frequent enough that a deadline lands within
			// milliseconds even on hub-heavy levels, cheap enough (one channel
			// select) to vanish against join costing.
			if err := e.checkCtx(); err != nil {
				return e.created, err
			}
			var partners []*memo.Class
			switch {
			case e.enum == EnumNaive && j == i:
				partners = right[ai+1:] // each unordered pair once
			case e.enum == EnumNaive:
				partners = right
			case j == i:
				partners = e.walker.Gather(e.Memo, a, j, a.Seq()+1)
			default:
				partners = e.walker.Gather(e.Memo, a, j, 0)
			}
			for _, b := range partners {
				e.pairsCons++
				if !a.Set.Disjoint(b.Set) || (e.enum == EnumNaive && !e.Q.Connected(a.Set, b.Set)) {
					continue
				}
				e.pairsConn++
				cls, isNew, err := e.joinDirect(a, b, k)
				if err != nil {
					return e.created, err
				}
				if isNew {
					e.created = append(e.created, cls)
				}
			}
		}
	}
	return e.created, nil
}

// observeLevel closes one enumeration level: the level-duration histogram,
// the plans-costed and pair counters, and — when the run carries a request
// span — a completed "level" child span with the level's creation, costing,
// pair and memory counts. A budget abort additionally bumps the abort
// counter; the level span carries the error. No-op when telemetry and
// tracing are both off.
func (e *Engine) observeLevel(k int, started time.Time, prevCosted, prevCons, prevConn int64, created int, err error) {
	if e.ob == nil && e.sp == nil {
		return
	}
	d := time.Since(started)
	costed := e.Model.PlansCosted - prevCosted
	pairsCons, pairsConn := e.pairsCons-prevCons, e.pairsConn-prevConn
	if e.sp != nil {
		lv := e.sp.ChildAt("level", started, d)
		lv.SetAttr("tech", e.label)
		lv.SetAttr("level", k)
		lv.SetAttr("classes_created", created)
		lv.SetAttr("plans_costed", costed)
		lv.SetAttr("pairs_considered", pairsCons)
		lv.SetAttr("pairs_connected", pairsConn)
		lv.SetAttr("sim_bytes", e.Memo.Stats.SimBytes)
		if err != nil {
			lv.SetError(err.Error())
		}
	}
	if e.ob == nil {
		return
	}
	// Labeled per level so level profiles line up on /metrics.
	e.ob.Histogram(obs.Label(obs.MLevelSeconds, "level", strconv.Itoa(k)), obs.SecondsBuckets).Observe(d.Seconds())
	e.cPlans.Add(costed)
	e.cPairsCons.Add(pairsCons)
	e.cPairsConn.Add(pairsConn)
	if errors.Is(err, memo.ErrBudget) {
		e.ob.Counter(obs.MBudgetAborts).Add(1)
	}
}

// joinDirect enumerates the physical joins of classes a and b, folding the
// results straight into the memo class for a∪b (creating it if needed).
func (e *Engine) joinDirect(a, b *memo.Class, level int) (*memo.Class, bool, error) {
	set := a.Set.Union(b.Set)
	cls := e.Memo.Get(set)
	isNew := cls == nil
	if isNew {
		// Canonical per-set cardinality: identical for every optimizer and
		// enumeration order (see cost.SetRows).
		rows := e.Model.SetRows(set)
		var err error
		cls, err = e.Memo.NewClass(set, level, rows, e.Model.Selectivity(set, rows))
		if err != nil {
			return nil, false, err
		}
	}
	return cls, isNew, e.joinPair(a, b, cls)
}

// joinPair is the join kernel: for every physical join of classes a and b —
// path × path × direction × operator — into their target class cls it
// runs begin pair → cost → gate → offer. What is constant per class pair is
// read once: the spanning predicates, both classes' retained paths as
// cost.Inputs (values named by their memo slots), both widths, and, in the
// coster this begins, every cost term but the two input costs. The bar
// (cost.Bar) snapshots cls's retained costs once per pair and again after
// every retention; a candidate it rejects would have changed nothing, and
// retained costs only fall, so the retained paths — and the candidate a
// budget abort fires at — are what offering every candidate gives. Cost ties
// pass and are broken structurally through the slots (Memo.AddCand). Nothing
// is built: trees are built from the memo for the answer only. The loop order
// pa × pb × {ab, ba} and the candidate order within an orientation are part
// of that contract. Buffers are stored back into the engine only when they
// grew: storing a slice is a pointer write, which costs a write barrier while
// the collector marks.
func (e *Engine) joinPair(a, b, cls *memo.Class) error {
	m := e.Memo
	preds := e.Q.AppendPredsBetween(e.predBuf[:0], a.Set, b.Set)
	inA := m.AppendInputs(e.inA[:0], a)
	inB := m.AppendInputs(e.inB[:0], b)
	keepGrown(&e.predBuf, preds)
	keepGrown(&e.inA, inA)
	keepGrown(&e.inB, inB)
	e.coster.Begin(e.Model, preds, cls.Rows, a.Width, b.Width)
	m.Bar(cls, &e.bar)
	for ka := range inA {
		for kb := range inB {
			pa, pb := &inA[ka], &inB[kb]
			if err := e.joinOriented(m, cls, pa, pb, false); err != nil {
				return err
			}
			if err := e.joinOriented(m, cls, pb, pa, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinOriented is joinPair's inner step for one path pair in one orientation
// (swapped: the outer is b's path).
func (e *Engine) joinOriented(m *memo.Memo, cls *memo.Class, o, i *cost.Input, swapped bool) error {
	admitted := e.coster.AppendCands(e.admitted[:0], o, i, swapped, &e.bar)
	keepGrown(&e.admitted, admitted)
	for k := range admitted {
		kept, err := m.AddCand(cls, admitted[k])
		if kept {
			m.Bar(cls, &e.bar)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// keepGrown stores buf into *dst if appending to *dst grew it.
func keepGrown[T any](dst *[]T, buf []T) {
	if cap(buf) != cap(*dst) {
		*dst = buf
	}
}

// Finalize returns the completed plan for the full relation set, applying
// the query's ORDER BY (using a retained interesting-order plan when it
// beats sorting the cheapest plan). It fails if enumeration has not reached
// the top level.
func (e *Engine) Finalize() (*plan.Plan, error) {
	full := bits.Full(e.Q.NumRelations())
	cls := e.Memo.Get(full)
	var best *plan.Plan
	if cls != nil {
		best = e.Memo.Best(cls)
	}
	if best == nil {
		return nil, fmt.Errorf("dp: no plan for the full relation set (enumeration incomplete)")
	}
	if e.Q.OrderBy == nil {
		return best, nil
	}
	ec := e.Q.OrderEqClass()
	if ec < 0 {
		// Ordering on a non-join column: always an explicit final sort.
		return e.Model.SortPlan(best, 0), nil
	}
	if best.Order == ec {
		return best, nil
	}
	sorted := e.Model.SortPlan(best, ec)
	if pre, ok := e.Memo.OrderedPlan(cls, ec); ok && plan.Less(pre, sorted) {
		return pre, nil
	}
	return sorted, nil
}

// Stats snapshots the overhead counters of this engine's run.
func (e *Engine) Stats() Stats {
	return Stats{
		Memo:            e.Memo.Stats,
		PlansCosted:     e.Model.PlansCosted - e.costedAtStart,
		PairsConsidered: e.pairsCons,
		PairsConnected:  e.pairsConn,
		Elapsed:         time.Since(e.started),
	}
}

// ObserveRun records one finished optimization of the named technique: the
// per-technique duration histogram and completion counter. DP, IDP, SDP and
// GOO all report through this single path, which is what makes their effort
// comparable. No-op when telemetry is off.
func ObserveRun(ob *obs.Observer, tech string, st Stats) {
	if ob == nil {
		return
	}
	ob.Histogram(obs.Label(obs.MOptimizeSeconds, "tech", tech), obs.SecondsBuckets).Observe(st.Elapsed.Seconds())
	ob.Counter(obs.Label(obs.MOptimizations, "tech", tech)).Add(1)
}

// Optimize runs exhaustive DP over the query's base relations and returns
// the optimal plan with overhead statistics. This is the paper's "DP"
// baseline. Stats.Elapsed is populated on every path, including validation
// errors and budget aborts, so aborted runs still report their wall time.
func Optimize(q *query.Query, opts Options) (*plan.Plan, Stats, error) {
	started := time.Now()
	label := opts.Label
	if label == "" {
		label = "DP"
		if opts.LeftDeepOnly {
			label = "DP/LD"
		}
		opts.Label = label
	}
	p, st, err := func() (*plan.Plan, Stats, error) {
		e, err := NewEngine(q, BaseLeaves(q), opts)
		// Deferred calls run after the return values, e.Stats() among them,
		// are evaluated.
		defer e.Release()
		if err != nil {
			if e != nil {
				return nil, e.Stats(), err
			}
			return nil, Stats{Elapsed: time.Since(started)}, err
		}
		if err := e.Run(q.NumRelations()); err != nil {
			return nil, e.Stats(), err
		}
		p, err := e.Finalize()
		return p, e.Stats(), err
	}()
	ObserveRun(obs.Or(opts.Obs), label, st)
	return p, st, err
}
