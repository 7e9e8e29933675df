// Package cost implements a PostgreSQL-style cost model and cardinality
// estimator for the optimizer.
//
// The paper runs every experiment inside PostgreSQL 8.1.2's optimizer; the
// reported metrics (plan cost, plans costed, memory, time) never require
// executing a query. This package reproduces the structure of that costing:
// sequential and index scans, explicit sorts, nested-loop / indexed
// nested-loop / hash / merge joins, work_mem-driven spill penalties, and the
// textbook equi-join selectivity 1/max(ndv) that PostgreSQL's eqjoinsel uses.
// Cost units follow PostgreSQL's convention: 1.0 = one sequential page fetch.
package cost

import (
	"math"
	"slices"

	"sdpopt/internal/bits"
	"sdpopt/internal/catalog"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// Params are the cost-model constants. Defaults mirror PostgreSQL 8.1.
type Params struct {
	SeqPageCost       float64 // cost of a sequential page fetch
	RandomPageCost    float64 // cost of a random page fetch
	CPUTupleCost      float64 // cost of processing one tuple
	CPUIndexTupleCost float64 // cost of processing one index entry
	CPUOperatorCost   float64 // cost of one operator/hash/comparison
	WorkMemBytes      float64 // memory available per sort/hash node
	IndexEntryWidth   float64 // bytes per b-tree entry, for index size
}

// DefaultParams returns PostgreSQL 8.1's default cost constants
// (work_mem = 1 MB in that release).
func DefaultParams() Params {
	return Params{
		SeqPageCost:       1.0,
		RandomPageCost:    4.0,
		CPUTupleCost:      0.01,
		CPUIndexTupleCost: 0.005,
		CPUOperatorCost:   0.0025,
		WorkMemBytes:      1 << 20,
		IndexEntryWidth:   16,
	}
}

// Model estimates cardinalities and costs for one query. It also counts
// every candidate plan it costs — the "number of plans costed" calibration
// the paper reports in its overhead tables.
type Model struct {
	Q      *query.Query
	Params Params

	// est supplies every cardinality estimate (see Estimator). The arrays
	// below snapshot its per-relation and per-predicate answers so the
	// enumeration hot path reads flat slices, not interface calls;
	// SetEstimator re-derives them.
	est Estimator

	predSel  []float64 // selectivity per predicate index
	relRows  []float64 // post-filter output cardinality per relation
	relWidth []int     // tuple width per query-local relation

	// predEq and idxEq snapshot the query's equivalence classes — per
	// predicate, and per relation for its indexed column (-1 when that column
	// joins nothing) — because join costing reads them per candidate and the
	// query answers from a map.
	predEq []int
	idxEq  []int

	// relProbe and relIdxScan are what an indexed nested loop over relation i
	// repeats per outer row: the cost of one probe of i's index and the
	// IndexScan node that stands as the join's inner. Both are pure functions
	// of (relation, estimator), so derive computes them once — only for
	// relations whose indexed column joins something, idxEq[i] >= 0 — and
	// every plan that probes i shares the one immutable node.
	relProbe   []float64
	relIdxScan []*plan.Plan

	// rowsMemo and widthMemo cache SetRows and Width per relation set. Both
	// are pure functions of the set (SetRows is canonical by design), so
	// memoization cannot change any estimate — it only removes the repeated
	// per-member recomputation from the enumeration hot path, where Width
	// runs several times per costed candidate. Lazily allocated.
	rowsMemo  map[bits.Set]float64
	widthMemo map[bits.Set]int

	// PlansCosted counts candidate plans constructed and costed.
	PlansCosted int64
}

// NewModel builds a cost model for q under the default catalog estimator,
// precomputing per-predicate selectivities and per-relation statistics.
func NewModel(q *query.Query, params Params) *Model {
	return NewModelEst(q, params, nil)
}

// NewModelEst builds a cost model for q that consumes its cardinality
// estimates from est. A nil est selects the default CatalogEstimator
// (identical to NewModel).
func NewModelEst(q *query.Query, params Params, est Estimator) *Model {
	if est == nil {
		est = NewCatalogEstimator(q)
	}
	m := &Model{Q: q, Params: params, est: est}
	m.relWidth = make([]int, q.NumRelations())
	m.idxEq = make([]int, q.NumRelations())
	for i := 0; i < q.NumRelations(); i++ {
		m.relWidth[i] = q.Relation(i).RowWidth()
		m.idxEq[i] = q.EqClass(i, q.Relation(i).IndexCol)
	}
	m.predEq = make([]int, len(q.Preds))
	for pi := range q.Preds {
		m.predEq[pi] = q.PredEqClass(pi)
	}
	m.derive()
	return m
}

// derive snapshots the estimator's per-relation and per-predicate answers
// into the hot-path arrays, with the per-relation index probe cost and scan
// node that follow from them, and drops the estimator-dependent SetRows memo.
// (widthMemo survives estimator swaps: tuple widths are physical schema
// facts, not estimates.)
func (m *Model) derive() {
	q := m.Q
	m.relRows = make([]float64, q.NumRelations())
	for i := 0; i < q.NumRelations(); i++ {
		m.relRows[i] = m.est.RelRows(i)
	}
	m.predSel = make([]float64, len(q.Preds))
	for i := range q.Preds {
		m.predSel[i] = m.est.PredSel(i)
	}
	m.relProbe = make([]float64, q.NumRelations())
	m.relIdxScan = make([]*plan.Plan, q.NumRelations())
	for i, ec := range m.idxEq {
		if ec >= 0 {
			m.relProbe[i] = m.indexProbeCost(i)
			m.relIdxScan[i] = m.indexScanNode(i, ec)
		}
	}
	m.rowsMemo = nil
}

// Estimator returns the model's active estimator.
func (m *Model) Estimator() Estimator { return m.est }

// SetEstimator swaps the model's estimator and re-derives every memoized
// estimate (relation rows, predicate selectivities, the SetRows memo) from
// it. A nil est restores the default CatalogEstimator. Not safe to call
// concurrently with costing; swap before optimizing.
func (m *Model) SetEstimator(est Estimator) {
	if est == nil {
		est = NewCatalogEstimator(m.Q)
	}
	m.est = est
	m.derive()
}

// FilterSel returns the active estimator's selectivity for local range
// filter f.
func (m *Model) FilterSel(f query.Filter) float64 { return m.est.FilterSel(f) }

// columnNDV is the active estimator's effective distinct count of
// (rel, col).
func (m *Model) columnNDV(rel, col int) float64 { return m.est.ColumnNDV(rel, col) }

// PredSel returns the estimated selectivity of predicate pi.
func (m *Model) PredSel(pi int) float64 { return m.predSel[pi] }

// BaseRows returns the cardinality of query-local relation i.
func (m *Model) BaseRows(i int) float64 { return m.relRows[i] }

// Width returns the output tuple width in bytes of a JCR covering set s
// (these workloads project all columns, so widths add). Memoized per set.
func (m *Model) Width(s bits.Set) int {
	if w, ok := m.widthMemo[s]; ok {
		return w
	}
	w := 0
	for it := s.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		w += m.relWidth[i]
	}
	if m.widthMemo == nil {
		m.widthMemo = make(map[bits.Set]int, 256)
	}
	m.widthMemo[s] = w
	return w
}

// JoinRows returns the cardinality of joining two disjoint JCRs with the
// given estimated row counts, applying every join predicate that spans
// them. Because the predicate set within a relation set is fixed, the
// result is independent of join order — all plans of a JCR share one
// cardinality, which is what makes the paper's per-JCR feature vector
// well defined.
func (m *Model) JoinRows(a, b bits.Set, rowsA, rowsB float64) float64 {
	rows := rowsA * rowsB
	for _, pi := range m.Q.PredsBetween(a, b) {
		rows *= m.predSel[pi]
	}
	if rows < 1 {
		return 1
	}
	return rows
}

// SetRows returns the cardinality of the JCR covering s: the product of
// base cardinalities times the selectivity of every predicate inside s.
//
// This is the canonical cardinality — every memo class derives its Rows
// from here, never incrementally from a particular join split, so all
// optimizers see identical cardinalities for identical relation sets
// regardless of enumeration order. (An incremental product would apply the
// ≥1-row floor at order-dependent points and let a pruned search "see"
// different statistics than an exhaustive one.) The product is accumulated
// in log space: a 45-relation JCR's raw row product can overflow float64.
// SetRows results are memoized per set: the function is pure, so the cache
// cannot perturb any estimate, and repeated lookups (IDP restarts) skip the
// log-space recomputation.
func (m *Model) SetRows(s bits.Set) float64 {
	if r, ok := m.rowsMemo[s]; ok {
		return r
	}
	logRows := 0.0
	for it := s.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		logRows += math.Log(m.relRows[i])
	}
	var buf [32]int // on the stack; a set with more inner predicates spills to the heap
	for _, pi := range m.Q.AppendPredsWithin(buf[:0], s) {
		logRows += math.Log(m.predSel[pi])
	}
	rows := math.Exp(logRows)
	if rows < 1 {
		rows = 1
	}
	if m.rowsMemo == nil {
		m.rowsMemo = make(map[bits.Set]float64, 256)
	}
	m.rowsMemo[s] = rows
	return rows
}

// Selectivity returns the paper's JCR selectivity feature: output rows
// divided by the product of the base relation cardinalities, computed in
// log space to avoid overflow on wide JCRs.
func (m *Model) Selectivity(s bits.Set, rows float64) float64 {
	logProd := 0.0
	s.Each(func(i int) { logProd += math.Log(m.relRows[i]) })
	return math.Exp(math.Log(rows) - logProd)
}

func (m *Model) pages(rows float64, width int) float64 {
	p := math.Ceil(rows * float64(width) / catalog.PageSize)
	if p < 1 {
		return 1
	}
	return p
}

// AccessPaths returns the candidate scans of base relation i: a sequential
// scan, plus an index scan when the relation's indexed column is a join
// column (the index order is then an interesting order worth keeping) or
// carries a range filter (the index prunes the scan to the matching
// range — classic access-path selection).
func (m *Model) AccessPaths(i int) []*plan.Plan {
	rel := m.Q.Relation(i)
	paths := []*plan.Plan{m.seqScan(i)}
	ec := m.Q.EqClass(i, rel.IndexCol)
	if ec >= 0 || m.indexedFilterSel(i) < 1 {
		paths = append(paths, m.indexScan(i, ec))
	}
	return paths
}

// indexedFilterSel is the combined selectivity of filters on relation i's
// indexed column — the fraction of the index a range scan must visit.
func (m *Model) indexedFilterSel(i int) float64 {
	rel := m.Q.Relation(i)
	s := 1.0
	for _, f := range m.Q.FiltersOn(i) {
		if f.Col == rel.IndexCol {
			s *= m.FilterSel(f)
		}
	}
	return s
}

func (m *Model) seqScan(i int) *plan.Plan {
	rel := m.Q.Relation(i)
	nFilters := len(m.Q.FiltersOn(i))
	c := rel.Pages()*m.Params.SeqPageCost +
		rel.Rows*(m.Params.CPUTupleCost+float64(nFilters)*m.Params.CPUOperatorCost)
	m.PlansCosted++
	return &plan.Plan{
		Op: plan.SeqScan, Rels: bits.Single(i), Rel: i,
		Cost: c, Rows: m.relRows[i], Order: plan.NoOrder,
	}
}

// indexScan costs a scan of relation i in index order, narrowed to the
// range matching any filters on the indexed column. Heap access
// interpolates between sequential and random fetches by the index
// correlation, following PostgreSQL's cost_index.
func (m *Model) indexScan(i, orderClass int) *plan.Plan {
	m.PlansCosted++
	return m.indexScanNode(i, orderClass)
}

// indexScanNode builds the index scan without counting it as a plan costed
// (derive builds the node indexed nested loops share; a candidate counts it
// when costed).
func (m *Model) indexScanNode(i, orderClass int) *plan.Plan {
	rel := m.Q.Relation(i)
	frac := m.indexedFilterSel(i)
	scanned := math.Max(1, rel.Rows*frac)
	idxPages := m.pages(scanned, int(m.Params.IndexEntryWidth))
	corr := rel.IndexCorr * rel.IndexCorr // PG interpolates on correlation²
	minIO := rel.Pages() * frac * m.Params.SeqPageCost
	// Fully uncorrelated: every fetched tuple is potentially a fresh heap
	// page visit, as in PostgreSQL's max_IO_cost for an unclustered index.
	maxIO := scanned * m.Params.RandomPageCost
	heap := corr*minIO + (1-corr)*maxIO
	nOther := len(m.Q.FiltersOn(i))
	c := idxPages*m.Params.SeqPageCost +
		scanned*(m.Params.CPUIndexTupleCost+m.Params.CPUTupleCost+float64(nOther)*m.Params.CPUOperatorCost) +
		heap
	return &plan.Plan{
		Op: plan.IndexScan, Rels: bits.Single(i), Rel: i,
		Cost: c, Rows: m.relRows[i], Order: orderClass,
	}
}

// SortPlan wraps p in an explicit sort to the given order class, with an
// n·log n comparison cost and an external-merge penalty when the input
// exceeds work_mem.
func (m *Model) SortPlan(p *plan.Plan, orderClass int) *plan.Plan {
	m.PlansCosted++
	s := sortOver(p, orderClass, p.Cost+m.sortCost(p.Rows, m.Width(p.Rels)))
	return &s
}

// sortOver returns the Sort node over p of the given total cost.
func sortOver(p *plan.Plan, orderClass int, cost float64) plan.Plan {
	return plan.Plan{Op: plan.Sort, Rels: p.Rels, Left: p, Cost: cost, Rows: p.Rows, Order: orderClass}
}

func (m *Model) sortCost(rows float64, width int) float64 {
	if rows < 2 {
		return m.Params.CPUOperatorCost
	}
	cmp := 2 * rows * math.Log2(rows) * m.Params.CPUOperatorCost
	bytes := rows * float64(width)
	if bytes <= m.Params.WorkMemBytes {
		return cmp
	}
	// External merge sort: read+write each page once per merge pass.
	pages := m.pages(rows, width)
	passes := math.Ceil(math.Log(bytes/m.Params.WorkMemBytes) / math.Log(16))
	if passes < 1 {
		passes = 1
	}
	return cmp + 2*pages*passes*m.Params.SeqPageCost
}

// JoinInputs identifies one candidate join: two disjoint subplans plus the
// predicates connecting them and the (shared) output cardinality. The tuple
// widths costing also needs are not part of it: they belong to the class pair
// (PairCoster.Begin), and AppendJoinCands looks them up.
type JoinInputs struct {
	Outer, Inner *plan.Plan
	// Preds indexes the query predicates spanning the two sides.
	Preds []int
	// Rows is the output cardinality of the joined JCR.
	Rows float64
}

// JoinCand is one physical join of a JoinInputs, costed but not built: the
// operator, the two inputs as given (before any sort or index scan the
// operator puts over them), the output cardinality, and the cost and output
// order a memo decides retention on. It is a plain value — costing a
// candidate allocates nothing — and BuildJoin turns it into the plan tree.
type JoinCand struct {
	Outer, Inner *plan.Plan
	Rows, Cost   float64
	// OuterCost and InnerCost are, for a merge join, what each input costs as
	// the join reads it: the input's own cost, or, where the input is not
	// ordered on the merge class, that of the Sort node BuildJoin puts over
	// it. Zero for the other operators.
	OuterCost, InnerCost float64
	// Order is the output order class: the merge class for a merge join, the
	// outer's order for an indexed nested loop, plan.NoOrder otherwise.
	Order int
	Op    plan.Op
}

// plansCosted is what the candidate adds to Model.PlansCosted — what building
// it would have counted: the join itself, one more per sort a merge join
// inserts, one more for an indexed nested loop's inner index scan.
func (c *JoinCand) plansCosted() int64 {
	n := int64(1)
	switch c.Op {
	case plan.IndexNestLoop:
		n++
	case plan.MergeJoin:
		if c.Outer.Order != c.Order {
			n++
		}
		if c.Inner.Order != c.Order {
			n++
		}
	}
	return n
}

// JoinPlans returns every candidate physical join of the inputs in this
// orientation: nested loop, indexed nested loop when the inner is a bare
// relation scan with its index on a spanning join column, hash join with
// the inner as build side, and one merge join per distinct spanning
// equivalence class. Callers enumerate both orientations.
func (m *Model) JoinPlans(in JoinInputs) []*plan.Plan {
	return m.AppendJoinPlans(make([]*plan.Plan, 0, 4), in)
}

// AppendJoinPlans is JoinPlans appending into a caller-owned slice: it costs
// the candidates (AppendJoinCands) and builds every one of them (BuildJoin),
// in candidate order. Callers that keep only some of the candidates — the
// enumerators — cost first and build only the ones something reads.
func (m *Model) AppendJoinPlans(dst []*plan.Plan, in JoinInputs) []*plan.Plan {
	var buf [8]JoinCand
	for _, c := range m.AppendJoinCands(buf[:0], in) {
		dst = append(dst, m.BuildJoin(c))
	}
	return dst
}

// AppendJoinCands costs every candidate physical join of the inputs in this
// orientation and appends them to dst in JoinPlans order: a one-pair,
// one-orientation use of PairCoster under an open bar. The coster owns the
// arithmetic and the PlansCosted accounting; a caller costing many path pairs
// of one class pair holds a PairCoster itself and begins it once.
func (m *Model) AppendJoinCands(dst []JoinCand, in JoinInputs) []JoinCand {
	var pc PairCoster
	pc.Begin(m, in.Preds, in.Rows, m.Width(in.Outer.Rels), m.Width(in.Inner.Rels))
	var open Bar
	return pc.AppendCands(dst, in.Outer, in.Inner, false, &open)
}

// BuildJoin materializes a costed candidate as the plan tree JoinPlans
// returns for it: the join node over its inputs, with a Sort node over each
// merge input not already ordered on the merge class (its cost carried in
// the candidate), and the model's per-relation IndexScan node (derive) as an
// indexed nested loop's inner — one node shared by every plan that probes
// that relation, as subplans are shared already. PlansCosted is not touched —
// costing counted them.
func (m *Model) BuildJoin(c JoinCand) *plan.Plan {
	var t joinTree
	m.layout(&c, &t)
	n := new(plan.Plan)
	*n = t.join
	if t.sortOuter {
		s := t.outer
		n.Left = &s
	}
	if t.sortInner {
		s := t.inner
		n.Right = &s
	}
	return n
}

// CompareJoins is plan.Compare over two join trees, each given as a built
// plan or, where that is nil, as the candidate BuildJoin would build it from.
// A candidate's tree is laid out on the stack, so comparing allocates
// nothing: it is how a memo breaks a cost tie between candidates it has not
// built, and ties are common — a merge join costs the same in both
// orientations. Two candidates are compared on their fields first
// (compareCands), which settles that tie without laying out either tree.
// Each side is linked up inline: stored through a helper's pointer, the
// nodes' addresses would escape to the heap.
func (m *Model) CompareJoins(a *plan.Plan, ac *JoinCand, b *plan.Plan, bc *JoinCand) int {
	if a == nil && b == nil {
		if c, ok := compareCands(ac, bc); ok {
			return c
		}
	}
	if a == nil {
		var t joinTree
		m.layout(ac, &t)
		if t.sortOuter {
			t.join.Left = &t.outer
		}
		if t.sortInner {
			t.join.Right = &t.inner
		}
		a = &t.join
	}
	if b == nil {
		var t joinTree
		m.layout(bc, &t)
		if t.sortOuter {
			t.join.Left = &t.outer
		}
		if t.sortInner {
			t.join.Right = &t.inner
		}
		b = &t.join
	}
	return plan.Compare(a, b)
}

// compareCands is plan.Compare over the trees two candidates build into, as
// far as their fields decide it: the roots' cost, relations, operator and
// order (a join node's Rel is zero), then the left children. Each test is
// the one plan.Compare makes at that point, so where ok its answer is
// plan.Compare's; otherwise the caller lays the trees out. The two common
// ties are decided here: a merge join and its mirror orientation differ in
// their left children's costs, and two indexed nested loops over one outer
// probing one relation build into the same tree, whichever scan of that
// relation each was given as its inner.
func compareCands(a, b *JoinCand) (c int, ok bool) {
	switch {
	case a.Cost < b.Cost:
		return -1, true
	case a.Cost > b.Cost:
		return 1, true
	}
	if c := a.Outer.Rels.Union(a.Inner.Rels).Compare(b.Outer.Rels.Union(b.Inner.Rels)); c != 0 {
		return c, true
	}
	if a.Op != b.Op {
		return int(a.Op) - int(b.Op), true
	}
	if a.Order != b.Order {
		return a.Order - b.Order, true
	}
	if a.Op == plan.IndexNestLoop && a.Outer == b.Outer {
		// One outer, so one probed relation (the roots cover the same
		// relations): both trees are that outer over the relation's IndexScan.
		return 0, true
	}
	switch la, lb := a.leftCost(), b.leftCost(); {
	case la < lb:
		return -1, true
	case la > lb:
		return 1, true
	}
	return 0, false
}

// leftCost is the cost of the left child of the tree c builds into (see
// layout): the Sort node over the outer for a merge join whose outer is not
// ordered on the merge class, the outer itself otherwise.
func (c *JoinCand) leftCost() float64 {
	if c.Op == plan.MergeJoin && c.Outer.Order != c.Order {
		return c.OuterCost
	}
	return c.Outer.Cost
}

// joinTree is a candidate's tree as node values: the join node, whose
// children are its inputs as given (an indexed nested loop's inner already
// the shared IndexScan node), and the Sort nodes a merge join puts over an
// input not ordered on the merge class, which the caller links in.
type joinTree struct {
	join, outer, inner   plan.Plan
	sortOuter, sortInner bool
}

// layout is the one definition of the tree a candidate builds into: it
// fills t, a zero joinTree.
func (m *Model) layout(c *JoinCand, t *joinTree) {
	o, i := c.Outer, c.Inner
	switch c.Op {
	case plan.MergeJoin:
		if t.sortOuter = o.Order != c.Order; t.sortOuter {
			t.outer = sortOver(o, c.Order, c.OuterCost)
		}
		if t.sortInner = i.Order != c.Order; t.sortInner {
			t.inner = sortOver(i, c.Order, c.InnerCost)
		}
	case plan.IndexNestLoop:
		// The inner scan plan is replaced by the index scan the loop repeats.
		i = m.relIdxScan[i.Rel]
	}
	t.join = plan.Plan{
		Op: c.Op, Rels: c.Outer.Rels.Union(c.Inner.Rels), Left: o, Right: i,
		Cost: c.Cost, Rows: c.Rows, Order: c.Order,
	}
}

// CheapestJoin returns the cheapest physical join of subplans a and b over
// both orientations (a as outer first), the first candidate winning cost
// ties: the coster run under an open bar. Only the winner is built. The
// greedy-style techniques, which keep a single plan per step, all join
// through here.
func (m *Model) CheapestJoin(a, b *plan.Plan, preds []int, rows float64) *plan.Plan {
	var pc PairCoster
	pc.Begin(m, preds, rows, m.Width(a.Rels), m.Width(b.Rels))
	var open Bar
	var buf [16]JoinCand
	cands := pc.AppendCands(buf[:0], a, b, false, &open)
	cands = pc.AppendCands(cands, b, a, true, &open)
	best := 0
	for k := range cands {
		if cands[k].Cost < cands[best].Cost {
			best = k
		}
	}
	return m.BuildJoin(cands[best])
}

// The per-operator constructors cost one candidate with the coster's
// arithmetic, count it and build it — what Recost, which re-runs a single
// known operator, needs.
func (m *Model) nestLoop(in JoinInputs) *plan.Plan {
	return m.joinOne(in, plan.NestLoop, plan.NoOrder)
}

func (m *Model) hashJoin(in JoinInputs) *plan.Plan {
	return m.joinOne(in, plan.HashJoin, plan.NoOrder)
}

func (m *Model) mergeJoin(in JoinInputs, ec int) *plan.Plan {
	return m.joinOne(in, plan.MergeJoin, ec)
}

// indexNestLoop returns nil when the operator does not apply to the inputs.
func (m *Model) indexNestLoop(in JoinInputs) *plan.Plan {
	return m.joinOne(in, plan.IndexNestLoop, plan.NoOrder)
}

// joinOne runs one operator's step of a PairCoster begun for the inputs; ec
// is the merge class of a merge join.
func (m *Model) joinOne(in JoinInputs, op plan.Op, ec int) *plan.Plan {
	var pc PairCoster
	pc.Begin(m, in.Preds, in.Rows, m.Width(in.Outer.Rels), m.Width(in.Inner.Rels))
	o, i := in.Outer, in.Inner
	t := pc.terms(o, i, false)
	c := JoinCand{Op: op, Outer: o, Inner: i, Rows: in.Rows, Order: plan.NoOrder}
	switch op {
	case plan.NestLoop:
		c.Cost = pc.nestLoop(t, o, i)
	case plan.HashJoin:
		c.Cost = pc.hashJoin(t, o, i)
	case plan.MergeJoin:
		c.Cost, c.OuterCost, c.InnerCost = pc.mergeJoin(t, o, i, ec)
		c.Order = ec
	case plan.IndexNestLoop:
		if !pc.probes(t, i) {
			return nil
		}
		c.Cost, c.Order = pc.indexNestLoop(t, o), o.Order
	}
	m.PlansCosted += c.plansCosted()
	return m.BuildJoin(c)
}

// PairCoster costs the physical joins of one class pair (A, B). Every path of
// a memo class has the class's row count and tuple width, so of each
// operator's formula only the two input costs vary between the candidates of
// a pair; everything else — the spanning predicates' merge classes, the
// output CPU term, and per orientation the materialize/rescan, build/probe,
// spill IO, merge comparison, sort and index-probe terms — is computed once
// (Begin, then lazily per orientation) and each candidate costs a handful of
// additions. The sums keep the addend order the formulas are written in, so
// a hoisted term changes no cost bit.
//
// The zero value is ready for Begin, and a coster is meant to be reused
// across pairs: it keeps its merge-class buffer.
type PairCoster struct {
	m      *Model
	preds  []int
	rows   float64
	outCPU float64 // rows * CPUTupleCost
	// mergeClasses is the distinct equivalence classes of the spanning
	// predicates in first-occurrence order: one merge join each.
	mergeClasses []int
	width        [2]int       // tuple width of A, of B
	sort         [2]sortTerm  // an explicit sort of A's paths, of B's
	dir          [2]pairTerms // A outer and B inner; B outer and A inner
}

// pairTerms is one orientation's candidate-independent terms. They are pure
// functions of the two inputs' row counts (and the pair's widths), and keyed
// on the counts they were computed from: a path that disagrees — a base
// relation's scans carry the estimator's count where the class carries
// exp(log(count)); IDP's compound leaves bring their own plans — recomputes
// them, so the terms are always the ones the formula would have produced for
// the paths in hand.
type pairTerms struct {
	oRows, iRows float64 // NaN until first computed

	mat, rescan float64 // nested loop: materialize the inner, o.Rows rescans of it
	build       float64 // hash join: build on the inner,
	probe       float64 // probe with the outer,
	spill       bool    // and when the inner exceeds work_mem,
	spillIO     float64 // write out and re-read both inputs
	cmp         float64 // merge join: comparisons,
	oSort       float64 // and an explicit sort of the outer
	iSort       float64 // or the inner where it is not ordered on the class

	// Indexed nested loop, per inner relation: whether relation inlRel's
	// index is on a spanning join column, and o.Rows probes of it.
	inlRel   int
	inlOK    bool
	inlProbe float64
}

// sortTerm is sortCost(rows, width) of one side, keyed like pairTerms.
type sortTerm struct{ rows, cost float64 }

// Begin starts a class pair: the predicates spanning A and B, the joined
// class's cardinality, and the two sides' tuple widths. preds is retained
// until the next Begin.
func (pc *PairCoster) Begin(m *Model, preds []int, rows float64, widthA, widthB int) {
	pc.m, pc.preds, pc.rows = m, preds, rows
	pc.outCPU = rows * m.Params.CPUTupleCost
	pc.width = [2]int{widthA, widthB}
	pc.mergeClasses = pc.mergeClasses[:0]
	for _, pi := range preds {
		ec := m.predEq[pi]
		if ec < 0 || slices.Contains(pc.mergeClasses, ec) {
			continue
		}
		pc.mergeClasses = append(pc.mergeClasses, ec)
	}
	// NaN equals no row count: the first paths seen compute every term.
	nan := math.NaN()
	pc.sort[0].rows, pc.sort[1].rows = nan, nan
	pc.dir[0].oRows, pc.dir[1].oRows = nan, nan
}

// Bar is a memo class's admission bar: the cost of its cheapest retained path
// and of its retained path per output order. A candidate passes when the
// class could retain it — it costs no more than the cheapest path, or it is
// ordered and costs no more than the retained path of its order, or the class
// holds none of that order. Cost ties pass: the class breaks them on the
// trees. A class's retained costs only ever fall, so a bar snapshotted
// earlier passes everything a current one does, and the extra candidates it
// passes the class drops without change. The zero Bar is open — the bar of a
// class that holds nothing yet — and passes every candidate.
type Bar struct {
	held bool    // the class holds a path; best is the cheapest one's cost
	best float64 // cost of the cheapest retained path
	// slots holds, by order class, the cost of the retained path of that
	// order; orders lists the slots held, which the next snapshot clears.
	slots  []orderSlot
	orders []int
}

// orderSlot is the cost of a class's retained path of one output order, if
// it holds one.
type orderSlot struct {
	cost float64
	held bool
}

// Open resets b to the open bar.
func (b *Bar) Open() {
	b.clear()
	b.held = false
}

// Reset sets b to the bar of a class whose cheapest path costs best, before
// its ordered paths are added (Ordered).
func (b *Bar) Reset(best float64) {
	b.clear()
	b.held, b.best = true, best
}

func (b *Bar) clear() {
	for _, o := range b.orders {
		b.slots[o].held = false
	}
	b.orders = b.orders[:0]
}

// Ordered adds the class's retained path of the given output order.
func (b *Bar) Ordered(order int, cost float64) {
	if order >= len(b.slots) {
		b.slots = append(b.slots, make([]orderSlot, order+1-len(b.slots))...)
	}
	b.slots[order] = orderSlot{cost: cost, held: true}
	b.orders = append(b.orders, order)
}

// Admits reports whether the bar passes a candidate of the given cost and
// output order.
func (b *Bar) Admits(cost float64, order int) bool {
	return !b.held || cost <= b.best || order != plan.NoOrder && b.admitsOrdered(cost, order)
}

// admitsOrdered is Admits for an ordered candidate that does not beat the
// cheapest path: it passes against the retained path of its order, if any.
func (b *Bar) admitsOrdered(cost float64, order int) bool {
	if order < len(b.slots) && b.slots[order].held {
		return cost <= b.slots[order].cost
	}
	return true
}

// AppendCands costs every candidate physical join of outer o and inner i —
// paths of A and B, or of B and A when swapped — in this order: nested loop,
// indexed nested loop if it applies, hash join, one merge join per spanning
// equivalence class. Each candidate is costed to a number and tested against
// bar; only those bar admits are appended to dst, as JoinCand values, in that
// order. PlansCosted advances by what building every candidate would count
// (JoinCand.plansCosted), admitted or not. Under an open bar every candidate
// is appended.
func (pc *PairCoster) AppendCands(dst []JoinCand, o, i *plan.Plan, swapped bool, bar *Bar) []JoinCand {
	t := pc.terms(o, i, swapped)
	n := int64(2) // the nested loop and the hash join
	if c := pc.nestLoop(t, o, i); bar.Admits(c, plan.NoOrder) {
		dst = append(dst, JoinCand{Op: plan.NestLoop, Outer: o, Inner: i, Rows: pc.rows, Cost: c, Order: plan.NoOrder})
	}
	if pc.probes(t, i) {
		n += 2 // the join and the inner index scan it repeats
		// Indexed nested loops preserve the outer ordering.
		if c := pc.indexNestLoop(t, o); bar.Admits(c, o.Order) {
			dst = append(dst, JoinCand{Op: plan.IndexNestLoop, Outer: o, Inner: i, Rows: pc.rows, Cost: c, Order: o.Order})
		}
	}
	if c := pc.hashJoin(t, o, i); bar.Admits(c, plan.NoOrder) {
		dst = append(dst, JoinCand{Op: plan.HashJoin, Outer: o, Inner: i, Rows: pc.rows, Cost: c, Order: plan.NoOrder})
	}
	for _, ec := range pc.mergeClasses {
		n++
		if o.Order != ec {
			n++ // a sort of the outer
		}
		if i.Order != ec {
			n++ // a sort of the inner
		}
		if c, oCost, iCost := pc.mergeJoin(t, o, i, ec); bar.Admits(c, ec) {
			dst = append(dst, JoinCand{Op: plan.MergeJoin, Outer: o, Inner: i, Rows: pc.rows, Cost: c, OuterCost: oCost, InnerCost: iCost, Order: ec})
		}
	}
	pc.m.PlansCosted += n
	return dst
}

// terms returns the orientation's terms for these two paths, recomputing
// them when they were computed from other row counts.
func (pc *PairCoster) terms(o, i *plan.Plan, swapped bool) *pairTerms {
	k := 0
	if swapped {
		k = 1
	}
	t := &pc.dir[k]
	if t.oRows == o.Rows && t.iRows == i.Rows {
		return t
	}
	m, p := pc.m, &pc.m.Params
	oRows, iRows, ow, iw := o.Rows, i.Rows, pc.width[k], pc.width[1-k]
	t.oRows, t.iRows = oRows, iRows
	t.mat = iRows * 2 * p.CPUOperatorCost // write to tuplestore
	t.rescan = oRows * (iRows*p.CPUOperatorCost + m.rescanIO(iRows, iw))
	t.build = iRows * (p.CPUOperatorCost*1.5 + p.CPUTupleCost)
	t.probe = oRows * p.CPUOperatorCost * 1.5
	t.spill = iRows*float64(iw) > p.WorkMemBytes
	if t.spill {
		// Both inputs are written out and re-read once per extra batch pass.
		io := m.pages(iRows, iw) + m.pages(oRows, ow)
		t.spillIO = 2 * io * p.SeqPageCost
	}
	t.cmp = (oRows + iRows) * p.CPUOperatorCost
	t.oSort, t.iSort = pc.sortCost(k, oRows), pc.sortCost(1-k, iRows)
	t.inlRel = -1
	return t
}

// sortCost is the cost of sorting rows tuples of one side (0 is A): both
// orientations charge the same two sorts, so they are computed per side.
func (pc *PairCoster) sortCost(side int, rows float64) float64 {
	s := &pc.sort[side]
	if s.rows != rows {
		s.rows, s.cost = rows, pc.m.sortCost(rows, pc.width[side])
	}
	return s.cost
}

// nestLoop costs a plain nested loop with the inner side materialized once
// and rescanned per outer row.
func (pc *PairCoster) nestLoop(t *pairTerms, o, i *plan.Plan) float64 {
	return o.Cost + i.Cost + t.mat + t.rescan + pc.outCPU
}

// rescanIO is the page cost of re-reading a materialized inner that spills
// out of work_mem.
func (m *Model) rescanIO(rows float64, width int) float64 {
	bytes := rows * float64(width)
	if bytes <= m.Params.WorkMemBytes {
		return 0
	}
	return m.pages(rows, width) * m.Params.SeqPageCost
}

// probes reports whether an indexed nested loop applies with i as the inner:
// i is a single-relation scan and that relation's indexed column belongs to
// the equivalence class of one of the spanning predicates — the plan shape
// that makes star joins on indexed spoke columns cheap. The answer and the
// probe term are kept per inner relation.
func (pc *PairCoster) probes(t *pairTerms, i *plan.Plan) bool {
	if !i.Op.IsScan() {
		return false
	}
	if t.inlRel != i.Rel {
		m := pc.m
		t.inlRel, t.inlOK = i.Rel, false
		if idxClass := m.idxEq[i.Rel]; idxClass >= 0 {
			for _, pi := range pc.preds {
				if m.predEq[pi] == idxClass {
					t.inlOK = true
					t.inlProbe = t.oRows * m.relProbe[i.Rel]
					break
				}
			}
		}
	}
	return t.inlOK
}

// indexNestLoop costs a nested loop that probes the inner base relation's
// index once per outer row (probes must have said it applies). The inner
// scan plan's own cost is not paid: the index replaces it. The candidate
// keeps the inner it was given; BuildJoin swaps in the index scan.
func (pc *PairCoster) indexNestLoop(t *pairTerms, o *plan.Plan) float64 {
	return o.Cost + t.inlProbe + pc.outCPU
}

// indexProbeCost is the cost of one probe of relation rel's index by an
// indexed nested loop: a b-tree descent, the leaf page, and the matching
// inner rows per outer row (the remaining spanning predicates filter after
// the probe, so the probe fetches them all).
func (m *Model) indexProbeCost(rel int) float64 {
	r := m.Q.Relation(rel)
	matchRows := math.Max(1, m.relRows[rel]/m.columnNDV(rel, r.IndexCol))
	descend := math.Ceil(math.Log2(r.Rows+1)) * m.Params.CPUOperatorCost
	corr := r.IndexCorr * r.IndexCorr
	perFetch := corr*m.Params.SeqPageCost*0.1 + (1-corr)*m.Params.RandomPageCost
	return descend + m.Params.RandomPageCost + // b-tree leaf page
		matchRows*(m.Params.CPUIndexTupleCost+m.Params.CPUTupleCost+perFetch)
}

// hashJoin costs a hash join building on the inner side, with batching IO
// when the build side exceeds work_mem (PostgreSQL's hybrid hash join).
func (pc *PairCoster) hashJoin(t *pairTerms, o, i *plan.Plan) float64 {
	c := o.Cost + i.Cost + t.build + t.probe + pc.outCPU
	if t.spill {
		c += t.spillIO
	}
	return c
}

// mergeJoin costs a merge join on equivalence class ec, charging an explicit
// sort for each input not already ordered on ec (BuildJoin inserts the Sort
// nodes), and returns what each input costs as the join reads it too. Its
// output carries ec as an interesting order.
func (pc *PairCoster) mergeJoin(t *pairTerms, o, i *plan.Plan, ec int) (c, oCost, iCost float64) {
	oCost, iCost = o.Cost, i.Cost
	if o.Order != ec {
		oCost += t.oSort
	}
	if i.Order != ec {
		iCost += t.iSort
	}
	return oCost + iCost + t.cmp + pc.outCPU, oCost, iCost
}
