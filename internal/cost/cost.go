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

	// logSel and logRows are log(predSel) and log(relRows), which SetRows and
	// Selectivity sum for every new class: taken once here, they leave the
	// sums what summing the logs in place gave, bit for bit.
	logSel  []float64
	logRows []float64

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

	// rowsMemo caches SetRows per relation set. SetRows is a pure function of
	// the set (canonical by design), so memoization cannot change any
	// estimate; it spares greedy and IDP2, which ask for the same sets again
	// and again, the per-member sums. Lazily allocated.
	rowsMemo map[bits.Set]float64

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
// and their logs into the hot-path arrays, with the per-relation index probe
// cost and scan node that follow from them, and drops the estimator-dependent
// SetRows memo.
func (m *Model) derive() {
	q := m.Q
	m.relRows = make([]float64, q.NumRelations())
	m.logRows = make([]float64, q.NumRelations())
	for i := 0; i < q.NumRelations(); i++ {
		m.relRows[i] = m.est.RelRows(i)
		m.logRows[i] = math.Log(m.relRows[i])
	}
	m.predSel = make([]float64, len(q.Preds))
	m.logSel = make([]float64, len(q.Preds))
	for i := range q.Preds {
		m.predSel[i] = m.est.PredSel(i)
		m.logSel[i] = math.Log(m.predSel[i])
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
// (these workloads project all columns, so widths add). A memo class stores
// its width, so the enumeration asks once per class.
func (m *Model) Width(s bits.Set) int {
	w := 0
	for it := s.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			return w
		}
		w += m.relWidth[i]
	}
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
		logRows += m.logRows[i]
	}
	var buf [32]int // on the stack; a set with more inner predicates spills to the heap
	for _, pi := range m.Q.AppendPredsWithin(buf[:0], s) {
		logRows += m.logSel[pi]
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
	s.Each(func(i int) { logProd += m.logRows[i] })
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
	return sortOver(p, orderClass, p.Cost+m.sortCost(p.Rows, m.Width(p.Rels)))
}

// sortOver returns the Sort node over p of the given total cost.
func sortOver(p *plan.Plan, orderClass int, cost float64) *plan.Plan {
	return &plan.Plan{Op: plan.Sort, Rels: p.Rels, Left: p, Cost: cost, Rows: p.Rows, Order: orderClass}
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

// Input is one join input as costing reads it: a plan, or a memo path that
// has not been built into one. Every input of a memo class has the class's
// relations and tuple width, which the coster takes per class pair.
type Input struct {
	Cost, Rows float64
	Order      int
	// Rel is the relation a scan input reads, or -1 for any other input: an
	// indexed nested loop applies only over a scan, and probes Rel's index in
	// its place.
	Rel int
	// Ref names the input to the caller; a candidate carries its inputs' Refs
	// as its Outer and Inner.
	Ref int32
}

// InputOf returns plan p as a join input named ref.
func InputOf(p *plan.Plan, ref int32) Input {
	in := Input{Cost: p.Cost, Rows: p.Rows, Order: p.Order, Rel: -1, Ref: ref}
	if p.Op.IsScan() {
		in.Rel = p.Rel
	}
	return in
}

// JoinCand is one physical join of two inputs, costed but not built: the
// operator, the inputs' Refs, the output cardinality, and the cost and output
// order a memo decides retention on. It holds no pointers, so a memo stores
// it as it is, and BuildJoin turns it into the plan tree given the inputs'.
type JoinCand struct {
	Rows, Cost float64
	// OuterCost and InnerCost are, for a merge join, what each input costs as
	// the join reads it: the input's own cost, or, where the input is not
	// ordered on the merge class, that of the Sort node BuildJoin puts over
	// it. Zero for the other operators.
	OuterCost, InnerCost float64
	// Order is the output order class: the merge class for a merge join, the
	// outer's order for an indexed nested loop, plan.NoOrder otherwise.
	Order int
	// Outer and Inner are the Refs of the inputs as given, before any sort or
	// index scan the operator puts over them.
	Outer, Inner int32
	Op           plan.Op
}

// JoinPlans returns every candidate physical join of the inputs in this
// orientation: nested loop, indexed nested loop when the inner is a bare
// relation scan with its index on a spanning join column, hash join with
// the inner as build side, and one merge join per distinct spanning
// equivalence class. Callers enumerate both orientations. It costs the
// candidates (AppendJoinCands) and builds every one (BuildJoin); callers that
// keep only some of the candidates — the enumerators — cost first and build
// only the ones something reads.
func (m *Model) JoinPlans(in JoinInputs) []*plan.Plan {
	var buf [8]JoinCand
	cands := m.AppendJoinCands(buf[:0], in)
	out := make([]*plan.Plan, len(cands))
	for k, c := range cands {
		out[k] = m.BuildJoin(c, in.Outer, in.Inner)
	}
	return out
}

// AppendJoinCands costs every candidate physical join of the inputs in this
// orientation and appends them to dst in JoinPlans order, the outer named 0
// and the inner 1: a one-pair, one-orientation use of PairCoster under an
// open bar. The coster owns the arithmetic and the PlansCosted accounting; a
// caller costing many path pairs of one class pair holds a PairCoster itself
// and begins it once.
func (m *Model) AppendJoinCands(dst []JoinCand, in JoinInputs) []JoinCand {
	var pc PairCoster
	pc.Begin(m, in.Preds, in.Rows, m.Width(in.Outer.Rels), m.Width(in.Inner.Rels))
	var open Bar
	o, i := InputOf(in.Outer, 0), InputOf(in.Inner, 1)
	return pc.AppendCands(dst, &o, &i, false, &open)
}

// BuildJoin materializes a costed candidate over the trees of its inputs as
// the plan tree JoinPlans returns for it: the join node over outer and inner,
// with a Sort node over each merge input not already ordered on the merge
// class (its cost carried in the candidate), and the model's per-relation
// IndexScan node (ProbedScan) as an indexed nested loop's inner — one node
// shared by every plan that probes that relation, as subplans are shared
// already. PlansCosted is not touched — costing counted them.
func (m *Model) BuildJoin(c JoinCand, outer, inner *plan.Plan) *plan.Plan {
	rels := outer.Rels.Union(inner.Rels)
	switch c.Op {
	case plan.MergeJoin:
		if outer.Order != c.Order {
			outer = sortOver(outer, c.Order, c.OuterCost)
		}
		if inner.Order != c.Order {
			inner = sortOver(inner, c.Order, c.InnerCost)
		}
	case plan.IndexNestLoop:
		// The inner scan plan is replaced by the index scan the loop repeats.
		inner = m.relIdxScan[inner.Rel]
	}
	return &plan.Plan{
		Op: c.Op, Rels: rels, Left: outer, Right: inner,
		Cost: c.Cost, Rows: c.Rows, Order: c.Order,
	}
}

// ProbedScan returns the IndexScan node every indexed nested loop probing
// relation rel stands as its inner (nil where rel's index joins nothing).
func (m *Model) ProbedScan(rel int) *plan.Plan { return m.relIdxScan[rel] }

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
	in := [2]*plan.Plan{a, b}
	ia, ib := InputOf(a, 0), InputOf(b, 1)
	cands := pc.AppendCands(buf[:0], &ia, &ib, false, &open)
	cands = pc.AppendCands(cands, &ib, &ia, true, &open)
	best := 0
	for k := range cands {
		if cands[k].Cost < cands[best].Cost {
			best = k
		}
	}
	c := cands[best]
	return m.BuildJoin(c, in[c.Outer], in[c.Inner])
}

// joinOne costs, counts and builds one candidate of a known operator, with a
// PairCoster begun for the inputs — what Recost, which re-runs a single
// operator, needs. It counts what building the candidate counts: the join,
// one more per sort a merge join inserts, one more for an indexed nested
// loop's inner index scan. ec is the merge class of a merge join. It returns
// nil for an indexed nested loop that does not apply to the inputs.
func (m *Model) joinOne(in JoinInputs, op plan.Op, ec int) *plan.Plan {
	var pc PairCoster
	pc.Begin(m, in.Preds, in.Rows, m.Width(in.Outer.Rels), m.Width(in.Inner.Rels))
	o, i := InputOf(in.Outer, 0), InputOf(in.Inner, 1)
	t := pc.terms(&o, &i, false)
	c := JoinCand{Op: op, Outer: 0, Inner: 1, Rows: in.Rows, Order: plan.NoOrder}
	n := int64(1)
	switch op {
	case plan.NestLoop:
		c.Cost = pc.nestLoop(t, &o, &i)
	case plan.HashJoin:
		c.Cost = pc.hashJoin(t, &o, &i)
	case plan.MergeJoin:
		c.Cost, c.OuterCost, c.InnerCost = pc.mergeJoin(t, &o, &i, ec)
		c.Order = ec
		if o.Order != ec {
			n++
		}
		if i.Order != ec {
			n++
		}
	case plan.IndexNestLoop:
		if !pc.probes(t, &i) {
			return nil
		}
		c.Cost, c.Order = pc.indexNestLoop(t, &o), o.Order
		n++
	}
	m.PlansCosted += n
	return m.BuildJoin(c, in.Outer, in.Inner)
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
// order, naming their inputs by o's and i's Refs. PlansCosted advances by
// what building every candidate would count — the join, one more per sort a
// merge join inserts, one more for an indexed nested loop's inner index scan
// — admitted or not. Under an open bar every candidate is appended.
func (pc *PairCoster) AppendCands(dst []JoinCand, o, i *Input, swapped bool, bar *Bar) []JoinCand {
	t := pc.terms(o, i, swapped)
	n := int64(2) // the nested loop and the hash join
	if c := pc.nestLoop(t, o, i); bar.Admits(c, plan.NoOrder) {
		dst = append(dst, JoinCand{Op: plan.NestLoop, Outer: o.Ref, Inner: i.Ref, Rows: pc.rows, Cost: c, Order: plan.NoOrder})
	}
	if pc.probes(t, i) {
		n += 2 // the join and the inner index scan it repeats
		// Indexed nested loops preserve the outer ordering.
		if c := pc.indexNestLoop(t, o); bar.Admits(c, o.Order) {
			dst = append(dst, JoinCand{Op: plan.IndexNestLoop, Outer: o.Ref, Inner: i.Ref, Rows: pc.rows, Cost: c, Order: o.Order})
		}
	}
	if c := pc.hashJoin(t, o, i); bar.Admits(c, plan.NoOrder) {
		dst = append(dst, JoinCand{Op: plan.HashJoin, Outer: o.Ref, Inner: i.Ref, Rows: pc.rows, Cost: c, Order: plan.NoOrder})
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
			dst = append(dst, JoinCand{Op: plan.MergeJoin, Outer: o.Ref, Inner: i.Ref, Rows: pc.rows, Cost: c, OuterCost: oCost, InnerCost: iCost, Order: ec})
		}
	}
	pc.m.PlansCosted += n
	return dst
}

// terms returns the orientation's terms for these two paths, recomputing
// them when they were computed from other row counts.
func (pc *PairCoster) terms(o, i *Input, swapped bool) *pairTerms {
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
func (pc *PairCoster) nestLoop(t *pairTerms, o, i *Input) float64 {
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
// i is a single-relation scan (Rel ≥ 0) and that relation's indexed column belongs to
// the equivalence class of one of the spanning predicates — the plan shape
// that makes star joins on indexed spoke columns cheap. The answer and the
// probe term are kept per inner relation.
func (pc *PairCoster) probes(t *pairTerms, i *Input) bool {
	if i.Rel < 0 {
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
func (pc *PairCoster) indexNestLoop(t *pairTerms, o *Input) float64 {
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
func (pc *PairCoster) hashJoin(t *pairTerms, o, i *Input) float64 {
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
func (pc *PairCoster) mergeJoin(t *pairTerms, o, i *Input, ec int) (c, oCost, iCost float64) {
	oCost, iCost = o.Cost, i.Cost
	if o.Order != ec {
		oCost += t.oSort
	}
	if i.Order != ec {
		iCost += t.iSort
	}
	return oCost + iCost + t.cmp + pc.outCPU, oCost, iCost
}
