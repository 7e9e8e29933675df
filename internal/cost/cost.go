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

	// rowsMemo and widthMemo cache SetRows and Width per relation set. Both
	// are pure functions of the set (SetRows is canonical by design), so
	// memoization cannot change any estimate — it only removes the repeated
	// per-member recomputation from the enumeration hot path, where Width
	// runs several times per costed candidate. Lazily allocated; Fork drops
	// them so each parallel worker builds its own (sharing would race).
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
// into the hot-path arrays and drops the estimator-dependent SetRows memo.
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
	m.rowsMemo = nil
}

// Estimator returns the model's active estimator.
func (m *Model) Estimator() Estimator { return m.est }

// SetEstimator swaps the model's estimator and re-derives every memoized
// estimate (relation rows, predicate selectivities, the SetRows memo) from
// it. A nil est restores the default CatalogEstimator. Not safe to call
// concurrently with costing; swap before optimizing or Fork a fresh model.
func (m *Model) SetEstimator(est Estimator) {
	if est == nil {
		est = NewCatalogEstimator(m.Q)
	}
	m.est = est
	m.derive()
}

// Fork returns a copy of the model for one parallel enumeration worker: the
// precomputed per-query statistics and the estimator are shared (both are
// read-only after NewModelEst/SetEstimator — Estimator implementations are
// required to be concurrency-safe pure functions, so sharing is race-free),
// while PlansCosted restarts at zero so workers count without
// synchronizing. The DP engine folds the forks' counts back into the
// parent at each level barrier. Estimator-dependent memoized state (the
// SetRows memo) is dropped, never shared, so a worker can never observe a
// memo populated under a different estimator.
func (m *Model) Fork() *Model {
	cp := *m
	cp.PlansCosted = 0
	// Memo maps are per-fork: a struct copy would share the parent's maps
	// across workers and race. Dropped here, rebuilt lazily on first use.
	cp.rowsMemo = nil
	cp.widthMemo = nil
	return &cp
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
// cannot perturb any estimate, and repeated lookups (IDP restarts, parallel
// workers racing to stage the same class) skip the log-space recomputation.
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
// (an indexed nested-loop candidate counted its inner scan when costed).
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
	return m.sortNode(p, orderClass, m.Width(p.Rels))
}

// sortedCost is the total cost of p under an explicit sort, given p's tuple
// width. Merge-join costing calls it without building the Sort node;
// sortNode calls it with the same arguments, so the two agree bit for bit.
func (m *Model) sortedCost(p *plan.Plan, width int) float64 {
	return p.Cost + m.sortCost(p.Rows, width)
}

// sortNode builds the Sort node over p without counting it as a plan costed
// — SortPlan counts, and a merge-join candidate counted its sorts when it
// was costed.
func (m *Model) sortNode(p *plan.Plan, orderClass, width int) *plan.Plan {
	return &plan.Plan{
		Op: plan.Sort, Rels: p.Rels, Left: p,
		Cost: m.sortedCost(p, width),
		Rows: p.Rows, Order: orderClass,
	}
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
// predicates connecting them and the (shared) output cardinality.
type JoinInputs struct {
	Outer, Inner *plan.Plan
	// Preds indexes the query predicates spanning the two sides.
	Preds []int
	// Rows is the output cardinality of the joined JCR.
	Rows float64
	// OuterWidth and InnerWidth are Width(Outer.Rels) and Width(Inner.Rels).
	// They are constant per class pair, so the join kernel reads them once
	// per pair instead of once per operator; zero means "look it up".
	OuterWidth, InnerWidth int
}

// JoinCand is one physical join of a JoinInputs, costed but not built: the
// operator, the two inputs as given (before any sort or index scan the
// operator puts over them), the output cardinality, and the cost and output
// order a memo decides retention on. It is a plain value — costing a
// candidate allocates nothing — and BuildJoin turns it into the plan tree.
type JoinCand struct {
	Outer, Inner *plan.Plan
	Rows, Cost   float64
	// Order is the output order class: the merge class for a merge join, the
	// outer's order for an indexed nested loop, plan.NoOrder otherwise.
	Order int
	Op    plan.Op
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
// enumerators — cost first and build the ones they keep.
func (m *Model) AppendJoinPlans(dst []*plan.Plan, in JoinInputs) []*plan.Plan {
	var buf [8]JoinCand
	for _, c := range m.AppendJoinCands(buf[:0], in) {
		dst = append(dst, m.BuildJoin(c))
	}
	return dst
}

// AppendJoinCands costs every candidate physical join of the inputs in this
// orientation and appends them to dst in JoinPlans order. PlansCosted
// advances here, by exactly what building the plans would have counted: one
// per candidate, one more per sort a merge join inserts, one more for an
// indexed nested loop's inner index scan.
func (m *Model) AppendJoinCands(dst []JoinCand, in JoinInputs) []JoinCand {
	in = m.withWidths(in)
	dst = append(dst, m.nestLoopCand(&in))
	if c, ok := m.indexNestLoopCand(&in); ok {
		dst = append(dst, c)
	}
	dst = append(dst, m.hashJoinCand(&in))
	for k, pi := range in.Preds {
		ec := m.predEq[pi]
		if ec < 0 {
			continue
		}
		// One merge join per distinct class, first occurrence wins. The
		// spanning-predicate list is tiny, so a rescan of the prefix beats
		// a per-call seen-map allocation.
		dup := false
		for _, pj := range in.Preds[:k] {
			if m.predEq[pj] == ec {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		dst = append(dst, m.mergeJoinCand(&in, ec))
	}
	return dst
}

// BuildJoin materializes a costed candidate as the plan tree JoinPlans
// returns for it: the join node over its inputs, with a Sort node over each
// merge input not already ordered on the merge class and a fresh IndexScan
// as an indexed nested loop's inner. What those child nodes cost is a pure
// function of the inputs, so it is recomputed here rather than carried in
// the candidate; PlansCosted is not touched — costing counted them.
func (m *Model) BuildJoin(c JoinCand) *plan.Plan {
	o, i := c.Outer, c.Inner
	switch c.Op {
	case plan.MergeJoin:
		if o.Order != c.Order {
			o = m.sortNode(o, c.Order, m.Width(o.Rels))
		}
		if i.Order != c.Order {
			i = m.sortNode(i, c.Order, m.Width(i.Rels))
		}
	case plan.IndexNestLoop:
		// The inner scan plan is replaced by the index scan the loop repeats.
		i = m.indexScanNode(i.Rel, m.idxEq[i.Rel])
	}
	return &plan.Plan{
		Op: c.Op, Rels: c.Outer.Rels.Union(c.Inner.Rels), Left: o, Right: i,
		Cost: c.Cost, Rows: c.Rows, Order: c.Order,
	}
}

// CheapestJoin returns the cheapest physical join of subplans a and b over
// both orientations (a as outer first), the first candidate winning cost
// ties. Only the winner is built. The greedy-style techniques, which keep a
// single plan per step, all join through here.
func (m *Model) CheapestJoin(a, b *plan.Plan, preds []int, rows float64) *plan.Plan {
	wa, wb := m.Width(a.Rels), m.Width(b.Rels)
	var buf [16]JoinCand
	cands := m.AppendJoinCands(buf[:0], JoinInputs{Outer: a, Inner: b, Preds: preds, Rows: rows, OuterWidth: wa, InnerWidth: wb})
	cands = m.AppendJoinCands(cands, JoinInputs{Outer: b, Inner: a, Preds: preds, Rows: rows, OuterWidth: wb, InnerWidth: wa})
	best := 0
	for k := range cands {
		if cands[k].Cost < cands[best].Cost {
			best = k
		}
	}
	return m.BuildJoin(cands[best])
}

// withWidths fills in the input widths a caller left at zero; the per-operator
// costing below reads them from in and never looks them up itself. (That
// costing takes in by pointer: the struct is nine words and is handed to four
// or more operators per orientation on the enumeration hot path.)
func (m *Model) withWidths(in JoinInputs) JoinInputs {
	if in.OuterWidth == 0 {
		in.OuterWidth = m.Width(in.Outer.Rels)
	}
	if in.InnerWidth == 0 {
		in.InnerWidth = m.Width(in.Inner.Rels)
	}
	return in
}

// The per-operator constructors cost one candidate and build it — what
// Recost, which re-runs a single known operator, needs.
func (m *Model) nestLoop(in JoinInputs) *plan.Plan {
	in = m.withWidths(in)
	return m.BuildJoin(m.nestLoopCand(&in))
}

func (m *Model) hashJoin(in JoinInputs) *plan.Plan {
	in = m.withWidths(in)
	return m.BuildJoin(m.hashJoinCand(&in))
}

func (m *Model) mergeJoin(in JoinInputs, ec int) *plan.Plan {
	in = m.withWidths(in)
	return m.BuildJoin(m.mergeJoinCand(&in, ec))
}

func (m *Model) indexNestLoop(in JoinInputs) *plan.Plan {
	c, ok := m.indexNestLoopCand(&in)
	if !ok {
		return nil
	}
	return m.BuildJoin(c)
}

// nestLoopCand costs a plain nested loop with the inner side materialized
// once and rescanned per outer row.
func (m *Model) nestLoopCand(in *JoinInputs) JoinCand {
	o, i := in.Outer, in.Inner
	mat := i.Rows * 2 * m.Params.CPUOperatorCost // write to tuplestore
	rescan := i.Rows*m.Params.CPUOperatorCost + m.rescanIO(i.Rows, in.InnerWidth)
	c := o.Cost + i.Cost + mat + o.Rows*rescan + in.Rows*m.Params.CPUTupleCost
	m.PlansCosted++
	return JoinCand{Op: plan.NestLoop, Outer: o, Inner: i, Rows: in.Rows, Cost: c, Order: plan.NoOrder}
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

// indexNestLoopCand costs a nested loop that probes the inner base
// relation's index once per outer row. It applies only when the inner
// subplan is a single-relation scan and that relation's indexed column
// belongs to the equivalence class of one of the spanning predicates — the
// plan shape that makes star joins on indexed spoke columns cheap.
func (m *Model) indexNestLoopCand(in *JoinInputs) (JoinCand, bool) {
	o, i := in.Outer, in.Inner
	if !i.Op.IsScan() {
		return JoinCand{}, false
	}
	rel := m.Q.Relation(i.Rel)
	idxClass := m.idxEq[i.Rel]
	if idxClass < 0 {
		return JoinCand{}, false
	}
	usable := false
	for _, pi := range in.Preds {
		if m.predEq[pi] == idxClass {
			usable = true
			break
		}
	}
	if !usable {
		return JoinCand{}, false
	}
	// Matching inner rows per outer row; the remaining spanning predicates
	// filter after the index probe, so the probe fetches matchRows tuples.
	matchRows := math.Max(1, m.relRows[i.Rel]/m.columnNDV(i.Rel, rel.IndexCol))
	descend := math.Ceil(math.Log2(rel.Rows+1)) * m.Params.CPUOperatorCost
	corr := rel.IndexCorr * rel.IndexCorr
	perFetch := corr*m.Params.SeqPageCost*0.1 + (1-corr)*m.Params.RandomPageCost
	probe := descend + m.Params.RandomPageCost + // b-tree leaf page
		matchRows*(m.Params.CPUIndexTupleCost+m.Params.CPUTupleCost+perFetch)
	// The inner scan plan's own cost is not paid: the index replaces it.
	c := o.Cost + o.Rows*probe + in.Rows*m.Params.CPUTupleCost
	// One for the join, one for the inner index scan BuildJoin puts under it.
	m.PlansCosted += 2
	return JoinCand{
		Op: plan.IndexNestLoop, Outer: o, Inner: i, Rows: in.Rows, Cost: c,
		// Indexed nested loops preserve the outer ordering.
		Order: o.Order,
	}, true
}

// hashJoinCand costs a hash join building on the inner side, with batching
// IO when the build side exceeds work_mem (PostgreSQL's hybrid hash join).
func (m *Model) hashJoinCand(in *JoinInputs) JoinCand {
	o, i := in.Outer, in.Inner
	c := o.Cost + i.Cost +
		i.Rows*(m.Params.CPUOperatorCost*1.5+m.Params.CPUTupleCost) + // build
		o.Rows*m.Params.CPUOperatorCost*1.5 + // probe
		in.Rows*m.Params.CPUTupleCost
	innerBytes := i.Rows * float64(in.InnerWidth)
	if innerBytes > m.Params.WorkMemBytes {
		// Both inputs are written out and re-read once per extra batch pass.
		io := m.pages(i.Rows, in.InnerWidth) + m.pages(o.Rows, in.OuterWidth)
		c += 2 * io * m.Params.SeqPageCost
	}
	m.PlansCosted++
	return JoinCand{Op: plan.HashJoin, Outer: o, Inner: i, Rows: in.Rows, Cost: c, Order: plan.NoOrder}
}

// mergeJoinCand costs a merge join on equivalence class ec, charging an
// explicit sort for each input not already ordered on ec (BuildJoin inserts
// the Sort nodes). Its output carries ec as an interesting order.
func (m *Model) mergeJoinCand(in *JoinInputs, ec int) JoinCand {
	o, i := in.Outer, in.Inner
	oCost, iCost := o.Cost, i.Cost
	if o.Order != ec {
		oCost = m.sortedCost(o, in.OuterWidth)
		m.PlansCosted++
	}
	if i.Order != ec {
		iCost = m.sortedCost(i, in.InnerWidth)
		m.PlansCosted++
	}
	c := oCost + iCost +
		(o.Rows+i.Rows)*m.Params.CPUOperatorCost +
		in.Rows*m.Params.CPUTupleCost
	m.PlansCosted++
	return JoinCand{Op: plan.MergeJoin, Outer: o, Inner: i, Rows: in.Rows, Cost: c, Order: ec}
}
