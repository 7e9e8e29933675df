// Package query models SQL join queries as join graphs.
//
// A query is a set of base relations drawn from a catalog, a conjunction of
// equi-join predicates between their columns, and an optional ORDER BY on a
// join column. The join graph view (adjacency between relations, hub
// detection, and the implied-edge closure over shared join columns) is the
// structure the SDP algorithm reasons about.
package query

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"sdpopt/internal/bits"
	"sdpopt/internal/catalog"
)

// Pred is an equi-join predicate LeftRel.LeftCol = RightRel.RightCol between
// two query-local relation indexes.
type Pred struct {
	LeftRel, LeftCol   int
	RightRel, RightCol int
	// Implied marks predicates added by the shared-join-column closure
	// (R.a=S.b ∧ R.a=T.c ⇒ S.b=T.c) rather than written by the user. The
	// paper notes that industrial rewriters, including PostgreSQL's, perform
	// this inclusion, and that the extra edges can create new hubs for SDP.
	Implied bool
}

// OrderSpec is a user-requested output order on one relation column. Only
// orders on join columns are relevant to the optimizer's interesting-order
// machinery; the workload generator always picks join columns.
type OrderSpec struct {
	Rel, Col int
}

// Filter is a local range selection "column < Bound" on one relation.
// Column values live in [0, NDV), so under a uniform distribution the
// filter's selectivity is Bound/NDV. Filters drive access-path selection:
// a filter on a relation's indexed column turns its index scan into a
// cheap range scan.
type Filter struct {
	Rel, Col int
	Bound    int64
}

// Query is an N-relation equi-join query over a catalog.
type Query struct {
	Cat *catalog.Catalog
	// Rels maps query-local relation index -> catalog relation index.
	Rels []int
	// Preds are the join predicates, user-written plus implied.
	Preds []Pred
	// Filters are local range selections applied at scan time.
	Filters []Filter
	// OrderBy, if non-nil, requests sorted output.
	OrderBy *OrderSpec

	adj []bits.Set // adjacency bitset per query-local relation
	// colBase[i] is relation i's first dense column id: (rel, col) is
	// colBase[rel]+col, so ids ascend in (rel, col) order. colBase has one
	// entry past the last relation, holding the total column count.
	colBase []int32
	// eqOf maps a dense column id to its equivalence class id, or -1 for a
	// column in no join predicate.
	eqOf  []int32
	numEq int
	// eqMembers lists every class's member columns in (rel, col) order,
	// class by class: class k's members are
	// eqMembers[eqStart[k]:eqStart[k+1]].
	eqMembers []colRef
	eqStart   []int32
	// byRel lists the predicate indexes incident to each relation, in
	// predicate order: relation i's are byRel[byRelStart[i]:byRelStart[i+1]].
	byRel      []int
	byRelStart []int32

	// canon memoizes the canonical frame (see Canon); queries are
	// immutable after construction, so it is computed at most once.
	canonOnce sync.Once
	canon     *Canon
}

type colRef struct{ rel, col int32 }

// New validates and finalizes a filter-free query: it checks indexes,
// computes the implied-edge closure, builds adjacency, and verifies the
// join graph is connected (the paper's workloads never require cartesian
// products).
func New(cat *catalog.Catalog, rels []int, preds []Pred, orderBy *OrderSpec) (*Query, error) {
	return NewFiltered(cat, rels, preds, nil, orderBy)
}

// NewFiltered is New with local range selections.
func NewFiltered(cat *catalog.Catalog, rels []int, preds []Pred, filters []Filter, orderBy *OrderSpec) (*Query, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("query: no relations")
	}
	if len(rels) > bits.MaxRelations {
		return nil, fmt.Errorf("query: %d relations exceeds the %d-relation limit", len(rels), bits.MaxRelations)
	}
	// The same catalog relation may appear several times under different
	// aliases (the paper's 28-relation chain over a 25-relation schema
	// requires it); each occurrence is an independent query-local relation.
	for _, r := range rels {
		if r < 0 || r >= cat.NumRelations() {
			return nil, fmt.Errorf("query: catalog relation %d out of range", r)
		}
	}
	q := &Query{Cat: cat, Rels: append([]int(nil), rels...), OrderBy: orderBy}
	q.Preds = make([]Pred, 0, len(preds))
	for _, p := range preds {
		if err := q.checkPred(p); err != nil {
			return nil, err
		}
		if p.LeftRel == p.RightRel {
			return nil, fmt.Errorf("query: self-join predicate on relation %d", p.LeftRel)
		}
		q.Preds = append(q.Preds, p)
	}
	if orderBy != nil {
		if orderBy.Rel < 0 || orderBy.Rel >= len(rels) {
			return nil, fmt.Errorf("query: ORDER BY relation %d out of range", orderBy.Rel)
		}
		if orderBy.Col < 0 || orderBy.Col >= len(cat.Relation(rels[orderBy.Rel]).Cols) {
			return nil, fmt.Errorf("query: ORDER BY column %d out of range", orderBy.Col)
		}
	}
	if len(filters) > 0 {
		q.Filters = make([]Filter, 0, len(filters))
	}
	for _, f := range filters {
		if f.Rel < 0 || f.Rel >= len(rels) {
			return nil, fmt.Errorf("query: filter relation %d out of range", f.Rel)
		}
		if f.Col < 0 || f.Col >= len(cat.Relation(rels[f.Rel]).Cols) {
			return nil, fmt.Errorf("query: filter column %d out of range", f.Col)
		}
		if f.Bound < 1 {
			return nil, fmt.Errorf("query: filter bound %d must be at least 1", f.Bound)
		}
		q.Filters = append(q.Filters, f)
	}
	q.closeImpliedEdges()
	q.buildIndexes()
	if !q.connected() {
		return nil, fmt.Errorf("query: join graph is disconnected")
	}
	return q, nil
}

func (q *Query) checkPred(p Pred) error {
	for _, side := range [2][2]int{{p.LeftRel, p.LeftCol}, {p.RightRel, p.RightCol}} {
		rel, col := side[0], side[1]
		if rel < 0 || rel >= len(q.Rels) {
			return fmt.Errorf("query: predicate relation %d out of range", rel)
		}
		if col < 0 || col >= len(q.Cat.Relation(q.Rels[rel]).Cols) {
			return fmt.Errorf("query: predicate column %d out of range for relation %d", col, rel)
		}
	}
	return nil
}

// closeImpliedEdges computes the transitive closure of equality over join
// columns. Columns connected by predicates form equivalence classes; every
// pair of class members in distinct relations becomes a join edge. Edges not
// present in the original predicate list are appended as Implied.
//
// Columns are addressed by dense id (see colBase), so the union-find, the
// class ids and the member lists are slices rather than maps. Class ids
// are assigned in order of each class's smallest member, and implied edges
// are appended class by class, members in (rel, col) order.
func (q *Query) closeImpliedEdges() {
	n := len(q.Rels)
	q.colBase = make([]int32, n+1)
	for i, r := range q.Rels {
		q.colBase[i+1] = q.colBase[i] + int32(len(q.Cat.Relation(r).Cols))
	}
	// Union-find in eqOf: -1 is a column in no predicate, otherwise a parent
	// id. Linking the larger root under the smaller keeps every parent below
	// its child, so each root is its class's smallest member.
	eq := make([]int32, q.colBase[n])
	for i := range eq {
		eq[i] = -1
	}
	find := func(x int32) int32 {
		if eq[x] < 0 {
			eq[x] = x
		}
		root := x
		for eq[root] != root {
			root = eq[root]
		}
		for eq[x] != root {
			eq[x], x = root, eq[x]
		}
		return root
	}
	for _, p := range q.Preds {
		a, b := find(q.colID(p.LeftRel, p.LeftCol)), find(q.colID(p.RightRel, p.RightCol))
		if a > b {
			a, b = b, a
		}
		eq[b] = a
	}
	// Ascending ids see each root before its members, and every parent is
	// already rewritten to its class id when its child is reached.
	members := 0
	for x, p := range eq {
		switch {
		case p < 0:
			continue
		case p == int32(x):
			eq[x] = int32(q.numEq)
			q.numEq++
		default:
			eq[x] = eq[p]
		}
		members++
	}
	q.eqOf = eq
	// Member lists by counting sort: eqStart[k] starts as the end of class
	// k and counts down to its start while ids are placed in descending
	// order, which leaves each class's members in (rel, col) order.
	q.eqStart = make([]int32, q.numEq+1)
	for _, k := range eq {
		if k >= 0 {
			q.eqStart[k]++
		}
	}
	for k := 1; k <= q.numEq; k++ {
		q.eqStart[k] += q.eqStart[k-1]
	}
	q.eqMembers = make([]colRef, members)
	rel := int32(n - 1)
	for x := int32(len(eq) - 1); x >= 0; x-- {
		k := eq[x]
		if k < 0 {
			continue
		}
		for x < q.colBase[rel] {
			rel--
		}
		q.eqStart[k]--
		q.eqMembers[q.eqStart[k]] = colRef{rel, x - q.colBase[rel]}
	}
	// A class of two members is exactly the predicate that formed it; only
	// larger classes can imply edges, and only those need the user's edges
	// (as sorted dense-id pairs) to skip the ones already written.
	var have []uint64
	user := len(q.Preds)
	for k := 0; k < q.numEq; k++ {
		ms := q.eqMembers[q.eqStart[k]:q.eqStart[k+1]]
		if len(ms) < 3 {
			continue
		}
		if have == nil {
			have = make([]uint64, 0, user)
			for _, p := range q.Preds[:user] {
				have = append(have, edgeKey(q.colID(p.LeftRel, p.LeftCol), q.colID(p.RightRel, p.RightCol)))
			}
			slices.Sort(have)
		}
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				if ms[i].rel == ms[j].rel {
					continue
				}
				a, b := q.colBase[ms[i].rel]+ms[i].col, q.colBase[ms[j].rel]+ms[j].col
				if _, found := slices.BinarySearch(have, edgeKey(a, b)); found {
					continue
				}
				q.Preds = append(q.Preds, Pred{
					LeftRel: int(ms[i].rel), LeftCol: int(ms[i].col),
					RightRel: int(ms[j].rel), RightCol: int(ms[j].col),
					Implied: true,
				})
			}
		}
	}
}

// colID returns the dense id of query-local column (rel, col).
func (q *Query) colID(rel, col int) int32 { return q.colBase[rel] + int32(col) }

// edgeKey packs an unordered pair of dense column ids.
func edgeKey(a, b int32) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

func (q *Query) buildIndexes() {
	n := len(q.Rels)
	q.adj = make([]bits.Set, n)
	q.byRelStart = make([]int32, n+1)
	for _, p := range q.Preds {
		q.adj[p.LeftRel] = q.adj[p.LeftRel].Add(p.RightRel)
		q.adj[p.RightRel] = q.adj[p.RightRel].Add(p.LeftRel)
		q.byRelStart[p.LeftRel]++
		q.byRelStart[p.RightRel]++
	}
	for i := 1; i <= n; i++ {
		q.byRelStart[i] += q.byRelStart[i-1]
	}
	// Counting down from each relation's end while placing predicates in
	// descending order leaves every list ascending (see eqStart).
	q.byRel = make([]int, 2*len(q.Preds))
	for i := len(q.Preds) - 1; i >= 0; i-- {
		p := &q.Preds[i]
		q.byRelStart[p.LeftRel]--
		q.byRel[q.byRelStart[p.LeftRel]] = i
		q.byRelStart[p.RightRel]--
		q.byRel[q.byRelStart[p.RightRel]] = i
	}
}

// predsOf returns the indexes of the predicates incident to relation i.
func (q *Query) predsOf(i int) []int { return q.byRel[q.byRelStart[i]:q.byRelStart[i+1]] }

func (q *Query) connected() bool {
	if len(q.Rels) == 1 {
		return true
	}
	reached := bits.Single(0)
	frontier := bits.Single(0)
	for !frontier.IsEmpty() {
		next := bits.Set{}
		frontier.Each(func(i int) { next = next.Union(q.adj[i]) })
		next = next.Diff(reached)
		reached = reached.Union(next)
		frontier = next
	}
	return reached == bits.Full(len(q.Rels))
}

// NumRelations returns the number of base relations in the query.
func (q *Query) NumRelations() int { return len(q.Rels) }

// Relation returns the catalog relation behind query-local index i.
func (q *Query) Relation(i int) *catalog.Relation {
	return q.Cat.Relation(q.Rels[i])
}

// Adjacent returns the relations adjacent to query-local relation i.
func (q *Query) Adjacent(i int) bits.Set { return q.adj[i] }

// Neighbors returns the relations outside s adjacent to any member of s —
// the neighbor set of s viewed as a contracted node of the join graph.
func (q *Query) Neighbors(s bits.Set) bits.Set {
	switch s.Len() {
	case 0:
		return bits.Set{}
	case 1: // single relation: adjacency is precomputed
		return q.adj[s.Min()] // adj[i] never contains i, so no Diff needed
	}
	var n bits.Set
	for it := s.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		n = n.Union(q.adj[i])
	}
	return n.Diff(s)
}

// Connected reports whether the two disjoint sets are joined by at least one
// edge, i.e. whether their join avoids a cartesian product.
func (q *Query) Connected(a, b bits.Set) bool {
	return q.Neighbors(a).Overlaps(b)
}

// ConnectedSet reports whether the relations of s form a connected subgraph.
func (q *Query) ConnectedSet(s bits.Set) bool {
	if s.IsEmpty() {
		return false
	}
	start := bits.Single(s.Min())
	reached, frontier := start, start
	for !frontier.IsEmpty() {
		var next bits.Set
		frontier.Each(func(i int) { next = next.Union(q.adj[i].Intersect(s)) })
		next = next.Diff(reached)
		reached = reached.Union(next)
		frontier = next
	}
	return reached == s
}

// PredsBetween returns the indexes into Preds of every predicate with one
// side in a and the other in b.
func (q *Query) PredsBetween(a, b bits.Set) []int {
	return q.AppendPredsBetween(nil, a, b)
}

// AppendPredsBetween appends to dst the indexes into Preds of every predicate
// with one side in a and the other in b, returning the extended slice in
// ascending predicate order. It is the allocation-free form of PredsBetween:
// the enumeration hot path passes a reused scratch slice (dst[:0]) so the
// per-pair predicate lookup allocates nothing once the scratch has grown.
func (q *Query) AppendPredsBetween(dst []int, a, b bits.Set) []int {
	base := len(dst)
	smaller := a
	if b.Len() < a.Len() {
		smaller = b
	}
	for it := smaller.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		for _, pi := range q.predsOf(i) {
			p := q.Preds[pi]
			if (a.Has(p.LeftRel) && b.Has(p.RightRel)) || (a.Has(p.RightRel) && b.Has(p.LeftRel)) {
				dst = append(dst, pi)
			}
		}
	}
	// For disjoint a and b each matching predicate is found exactly once (a
	// predicate reached twice would need both sides in `smaller`, which the
	// cross test rejects), so deduplication reduces to dropping adjacent
	// repeats after the sort — kept for safety with overlapping inputs.
	added := dst[base:]
	sort.Ints(added)
	w := base
	for k, pi := range added {
		if k > 0 && pi == added[k-1] {
			continue
		}
		dst[w] = pi
		w++
	}
	return dst[:w]
}

// PredsWithin returns the indexes of every predicate whose both sides fall
// inside s.
func (q *Query) PredsWithin(s bits.Set) []int {
	return q.AppendPredsWithin(nil, s)
}

// AppendPredsWithin is PredsWithin appending into a caller-owned slice, so a
// caller with a buffer to hand allocates nothing.
func (q *Query) AppendPredsWithin(dst []int, s bits.Set) []int {
	for i, p := range q.Preds {
		if s.Has(p.LeftRel) && s.Has(p.RightRel) {
			dst = append(dst, i)
		}
	}
	return dst
}

// EqClass returns the join-column equivalence class id of (rel, col), or -1
// if the column participates in no join predicate. Class ids identify
// interesting orders: a plan sorted on any member column of a class can feed
// a merge join on any predicate of that class.
func (q *Query) EqClass(rel, col int) int {
	return int(q.eqOf[q.colID(rel, col)])
}

// NumEqClasses returns the number of join-column equivalence classes.
func (q *Query) NumEqClasses() int { return q.numEq }

// PredEqClass returns the equivalence class of predicate pi's columns (both
// sides are in the same class by construction).
func (q *Query) PredEqClass(pi int) int {
	p := q.Preds[pi]
	return q.EqClass(p.LeftRel, p.LeftCol)
}

// OrderEqClass returns the equivalence class of the ORDER BY column, or -1
// if the query is unordered or ordered on a non-join column.
func (q *Query) OrderEqClass() int {
	if q.OrderBy == nil {
		return -1
	}
	return q.EqClass(q.OrderBy.Rel, q.OrderBy.Col)
}

// FiltersOn returns the filters applying to query-local relation i.
func (q *Query) FiltersOn(i int) []Filter {
	var out []Filter
	for _, f := range q.Filters {
		if f.Rel == i {
			out = append(out, f)
		}
	}
	return out
}

// HubRels returns the root hubs: base relations adjacent to three or more
// relations in the join graph.
func (q *Query) HubRels() bits.Set {
	var hubs bits.Set
	for i := range q.Rels {
		if q.adj[i].Len() >= 3 {
			hubs = hubs.Add(i)
		}
	}
	return hubs
}

// IsHub reports whether the JCR s, treated as a single contracted relation,
// is a hub: it has join edges to three or more relations outside itself.
// For a singleton this coincides with root-hub membership. Hubs are
// recomputed per SDP level with exactly this rule (Section 2.1's example:
// after {1,2} is retained it counts as a hub because it has edges to 3, 4
// and 5).
func (q *Query) IsHub(s bits.Set) bool {
	return q.Neighbors(s).Len() >= 3
}

// String renders the query as SQL text.
func (q *Query) String() string { return q.SQL() }
