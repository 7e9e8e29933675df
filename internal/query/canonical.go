package query

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"
)

// Canonical returns a stable canonical encoding of the query's semantics.
// Two queries receive the same encoding exactly when they describe the same
// optimization problem, regardless of how they were written:
//
//   - Relation order is normalized: the FROM list is relabeled by a
//     canonical ordering of the join graph (color refinement with
//     individualization), so "FROM R1 a, R2 b" and "FROM R2 x, R1 y" with
//     correspondingly renumbered predicates encode identically.
//   - Predicate order and orientation are normalized: the encoding is built
//     from the join-column equivalence classes of the implied-edge closure,
//     so "a.c1 = b.c2" vs "b.c2 = a.c1", any predicate ordering, and
//     user-written predicates that the closure would have implied anyway
//     all collapse to one form.
//   - Filter constants are normalized: multiple bounds on one column keep
//     the minimum (c < 100 AND c < 200 ≡ c < 100), and bounds at or above
//     the column's domain size are dropped (they select every row).
//   - ORDER BY on a join column is normalized to its equivalence class:
//     sorting the join result on t1.c4 and on t2.c9 is the same output
//     order when c4 = c9 is a join predicate.
//
// The encoding is deliberately collision-free: every semantic feature of
// the query (catalog relations, join structure, filters, output order)
// appears in it, so distinct queries cannot share an encoding. Use
// Fingerprint for a fixed-width digest suitable as a cache key.
func (q *Query) Canonical() string {
	return q.Canon().Encoding
}

// Canon is a query's canonical frame: the stable encoding plus the
// relabelings connecting the query's local relation indexes and join-column
// equivalence class ids to their canonical counterparts. Two equivalent
// spellings of one query share an Encoding, and their maps translate
// query-local references through the shared canonical frame — which is how
// a plan cached under one spelling is relabeled for another (see
// internal/server).
type Canon struct {
	// Encoding is the canonical encoding (see Canonical).
	Encoding string
	// Fingerprint is the fixed-width digest of Encoding (see
	// Query.Fingerprint), computed once with the frame.
	Fingerprint string
	// RelTo maps a query-local relation index to its canonical position;
	// RelFrom is the inverse (RelFrom[RelTo[i]] == i).
	RelTo, RelFrom []int
	// EqTo maps a join-column equivalence class id (see EqClass) to its
	// canonical rank; EqFrom is the inverse.
	EqTo, EqFrom []int
	// Truncated reports that the labeling search exhausted searchBudget
	// before proving the chosen ordering minimal. The encoding is still a
	// faithful description of this query, but equivalent spellings may land
	// on different encodings — a cache hit-rate loss, never a wrong answer.
	Truncated bool
}

// Canon returns the query's canonical frame, computed once and memoized
// (queries are immutable after construction).
func (q *Query) Canon() *Canon {
	q.canonOnce.Do(func() {
		q.canon = newCanonicalizer(q).run()
	})
	return q.canon
}

// Fingerprint returns a fixed-width hex digest of Canonical() — the
// plan-cache key component identifying the query (see internal/plancache
// for the full key composition: fingerprint × technique × catalog version).
// It is digested once with the canonical frame, so every caller on a
// request's path shares one hash.
func (q *Query) Fingerprint() string { return q.Canon().Fingerprint }

// searchBudget caps the number of complete orderings the canonical search
// may encode. Tie groups only survive refinement when relations share every
// refined invariant (same catalog relation, same filters, same join
// neighborhood), so real workloads branch rarely; the cap bounds
// adversarial self-join cliques. Within budget the result is the exact
// lexicographic minimum and therefore order-insensitive. Past it the search
// keeps the best ordering found so far — but DFS order depends on input
// relation order and WL refinement is incomplete (tie groups can contain
// non-symmetric relations), so a truncated search may give equivalent
// spellings of one query different encodings. That degrades cache hit rate,
// never correctness: each encoding still faithfully describes its query.
// Truncation is reported via Canon().Truncated so servers can count it.
const searchBudget = 4096

// span is one rendering in the canonicalizer's arena: arena[off:end].
type span struct{ off, end int32 }

// classSpan is an equivalence class's rendering under the current leaf's
// relabeling.
type classSpan struct {
	span
	id int32
}

// canonFilter is one normalized filter: the minimum bound on a column,
// kept only when it selects fewer than all rows.
type canonFilter struct {
	rel, col int
	bound    int64
}

// The canonicalizer renders every signature — refinement colors, class
// member lists, filters, the encoding itself — with strconv into one reused
// byte arena and ranks by sorting spans of it. Ranks and orderings still
// compare rendered bytes, not the numbers behind them: that byte order is
// what every recorded encoding, and so every cached fingerprint, was built
// from.
type canonicalizer struct {
	q *Query
	n int
	// filters is the normalized filter set, sorted by (rel, col).
	filters []canonFilter

	arena   []byte
	parts   []span      // the pieces of the signature being rendered
	sigs    []span      // one refinement signature per relation
	order   []int32     // sort scratch over sigs
	classes []classSpan // class renderings of the current leaf
	seen    []bool      // distinct-color scratch; colors stay below 2n
	inv     []int       // relabeling of the current leaf
	enc     []byte      // encoding of the current leaf
	placed  []bool      // relations on the search prefix
	prefix  []int       // the search prefix, grown in place
	// levels holds two color buffers per search depth (index 0 is the
	// initial refinement, d+1 a branch at prefix length d), sized when the
	// search first branches there.
	levels [][]int

	budget    int
	best      []byte
	bestSet   bool
	truncated bool
	// out is the result. Its four relabelings share one allocation; the
	// best leaf writes RelFrom and EqFrom into it directly, and run fills
	// in the rest.
	out *Canon
}

// canonScratch recycles canonicalizers: every buffer a search works in
// outlives the query that grew it, so a request pays only for its result —
// the Canon, its relabelings, Encoding and Fingerprint.
var canonScratch = sync.Pool{New: func() any { return new(canonicalizer) }}

// resize returns s with length n, reusing its backing array when it is large
// enough. The contents are unspecified: every caller writes before it reads.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func newCanonicalizer(q *Query) *canonicalizer {
	n := len(q.Rels)
	c := canonScratch.Get().(*canonicalizer)
	c.q, c.n, c.budget, c.bestSet, c.truncated = q, n, searchBudget, false, false
	c.filters = c.filters[:0]
	for _, f := range q.Filters {
		if float64(f.Bound) >= q.Relation(f.Rel).Cols[f.Col].NDV {
			continue // column values live in [0, NDV): the filter is a no-op
		}
		c.filters = append(c.filters, canonFilter{f.Rel, f.Col, f.Bound})
	}
	slices.SortFunc(c.filters, func(a, b canonFilter) int {
		return cmp.Or(cmp.Compare(a.rel, b.rel), cmp.Compare(a.col, b.col), cmp.Compare(a.bound, b.bound))
	})
	// The first of each (rel, col) run carries the minimum bound.
	c.filters = slices.CompactFunc(c.filters, func(a, b canonFilter) bool { return a.rel == b.rel && a.col == b.col })

	items := 2*len(q.Preds) + len(q.eqMembers) + len(c.filters)
	c.arena = slices.Grow(c.arena[:0], 24*items+8*n)
	c.parts = slices.Grow(c.parts[:0], max(len(q.Preds), len(q.eqMembers), len(c.filters)))
	c.sigs = resize(c.sigs, n)
	c.order = resize(c.order, n)
	c.classes = slices.Grow(c.classes[:0], q.numEq)
	c.seen = resize(c.seen, 2*n)
	c.inv = resize(c.inv, n)
	c.enc = slices.Grow(c.enc[:0], 4*n+6*len(q.eqMembers)+12*len(c.filters)+16)
	c.placed = resize(c.placed, n)
	clear(c.placed)
	c.prefix = slices.Grow(c.prefix[:0], n)
	// Deeper levels keep their buffers from earlier queries; level resizes
	// one when the search first branches there.
	if len(c.levels) < n+1 {
		c.levels = append(c.levels, make([][]int, n+1-len(c.levels))...)
	}
	e := q.numEq
	ints := make([]int, 2*n+2*e)
	c.out = &Canon{RelTo: ints[:n:n], RelFrom: ints[n : 2*n : 2*n], EqTo: ints[2*n : 2*n+e : 2*n+e], EqFrom: ints[2*n+e:]}
	return c
}

// run searches for the canonical frame and returns the canonicalizer to the
// pool; c must not be used afterwards.
func (c *canonicalizer) run() *Canon {
	a, b := c.level(0)
	c.search(c.refine(c.initialColors(a), b), c.prefix)
	var digest [32]byte
	sum := sha256.Sum256(c.best)
	hex.Encode(digest[:], sum[:16])
	cn := c.out
	cn.Encoding, cn.Fingerprint, cn.Truncated = string(c.best), string(digest[:]), c.truncated
	for canonIdx, local := range cn.RelFrom {
		cn.RelTo[local] = canonIdx
	}
	// Equivalence classes rank by their rendering under the winning
	// relabeling — exactly the order the encoding's J: section sorts them
	// in, so equivalent spellings that share an Encoding agree on the ranks.
	// Distinct classes have disjoint member sets, hence distinct renderings.
	for rank, id := range cn.EqFrom {
		cn.EqTo[id] = rank
	}
	c.q, c.out = nil, nil
	canonScratch.Put(c)
	return cn
}

// level returns search depth d's two color buffers.
func (c *canonicalizer) level(d int) (a, b []int) {
	l := resize(c.levels[d], 2*c.n)
	c.levels[d] = l
	return l[:c.n:c.n], l[c.n:]
}

// compare orders two renderings bytewise, as Go orders strings.
func (c *canonicalizer) compare(a, b span) int {
	return bytes.Compare(c.arena[a.off:a.end], c.arena[b.off:b.end])
}

// mark ends the rendering that began at arena offset off.
func (c *canonicalizer) mark(off int) span { return span{int32(off), int32(len(c.arena))} }

func (c *canonicalizer) appendInt(x int) { c.arena = strconv.AppendInt(c.arena, int64(x), 10) }

// appendSorted sorts the renderings and appends them to the arena joined by
// sep.
func (c *canonicalizer) appendSorted(spans []span, sep byte) {
	slices.SortFunc(spans, c.compare)
	for k, sp := range spans {
		if k > 0 {
			c.arena = append(c.arena, sep)
		}
		c.arena = append(c.arena, c.arena[sp.off:sp.end]...)
	}
}

// rank writes into out each relation's signature rank among the sorted
// distinct signatures — a permutation-invariant relabeling — and returns
// the number of distinct signatures.
func (c *canonicalizer) rank(out []int) int {
	for i := range c.order {
		c.order[i] = int32(i)
	}
	slices.SortFunc(c.order, func(a, b int32) int { return c.compare(c.sigs[a], c.sigs[b]) })
	r := -1
	for k, i := range c.order {
		if k == 0 || c.compare(c.sigs[c.order[k-1]], c.sigs[i]) != 0 {
			r++
		}
		out[i] = r
	}
	return r + 1
}

func (c *canonicalizer) countDistinct(colors []int) int {
	clear(c.seen)
	d := 0
	for _, x := range colors {
		if !c.seen[x] {
			c.seen[x] = true
			d++
		}
	}
	return d
}

// initialColors seeds the refinement with every relation-local semantic
// feature: the catalog relation behind the alias, its normalized filters,
// and — only for an ORDER BY on a non-join column, where the relation
// identity matters — the requested order. It writes the colors into out.
func (c *canonicalizer) initialColors(out []int) []int {
	c.arena = c.arena[:0]
	fs := c.filters
	for i := 0; i < c.n; i++ {
		c.parts = c.parts[:0]
		for ; len(fs) > 0 && fs[0].rel == i; fs = fs[1:] {
			off := len(c.arena)
			c.appendInt(fs[0].col)
			c.arena = append(c.arena, '<')
			c.arena = strconv.AppendInt(c.arena, fs[0].bound, 10)
			c.parts = append(c.parts, c.mark(off))
		}
		off := len(c.arena)
		c.arena = append(c.arena, 'r')
		c.appendInt(c.q.Rels[i])
		c.arena = append(c.arena, '|')
		c.appendSorted(c.parts, ',')
		if o := c.q.OrderBy; o != nil && o.Rel == i && c.q.OrderEqClass() < 0 {
			c.arena = append(c.arena, "|o"...)
			c.appendInt(o.Col)
		}
		c.sigs[i] = c.mark(off)
	}
	c.rank(out)
	return out
}

// refine runs Weisfeiler-Leman color refinement to a fixed point: each
// round extends a relation's color with the sorted multiset of its join
// edges (column pair plus neighbor color) and re-ranks. Ranks are assigned
// by sorted signature, so they are invariant under input permutation.
// Rounds alternate between colors and spare; the fixed point is returned in
// one of them.
func (c *canonicalizer) refine(colors, spare []int) []int {
	distinct := c.countDistinct(colors)
	for {
		c.arena = c.arena[:0]
		for i := 0; i < c.n; i++ {
			c.parts = c.parts[:0]
			for _, pi := range c.q.predsOf(i) {
				p := &c.q.Preds[pi]
				my, other, to := p.LeftCol, p.RightCol, p.RightRel
				if p.RightRel == i {
					my, other, to = p.RightCol, p.LeftCol, p.LeftRel
				}
				off := len(c.arena)
				c.appendInt(my)
				c.arena = append(c.arena, '.')
				c.appendInt(other)
				c.arena = append(c.arena, '.')
				c.appendInt(colors[to])
				c.parts = append(c.parts, c.mark(off))
			}
			off := len(c.arena)
			c.appendInt(colors[i])
			c.arena = append(c.arena, '|')
			c.appendSorted(c.parts, ',')
			c.sigs[i] = c.mark(off)
		}
		nd := c.rank(spare)
		if nd == distinct {
			return spare
		}
		colors, spare, distinct = spare, colors, nd
	}
}

// search explores canonical orderings: repeatedly take the minimal color
// among unplaced relations; a singleton class is placed directly, a tie
// group branches on each member (individualize, re-refine, recurse). The
// lexicographically smallest complete encoding wins.
func (c *canonicalizer) search(colors []int, prefix []int) {
	if len(prefix) == c.n {
		c.leaf(prefix)
		c.budget--
		return
	}
	minColor, first, ties := -1, -1, 0
	for i := 0; i < c.n; i++ {
		if c.placed[i] {
			continue
		}
		switch {
		case minColor < 0 || colors[i] < minColor:
			minColor, first, ties = colors[i], i, 1
		case colors[i] == minColor:
			ties++
		}
	}
	if ties == 1 {
		c.placed[first] = true
		c.search(colors, append(prefix, first))
		c.placed[first] = false
		return
	}
	next, spare := c.level(len(prefix) + 1)
	for pick := first; pick < c.n; pick++ {
		if c.placed[pick] || colors[pick] != minColor {
			continue
		}
		if c.bestSet && c.budget <= 0 {
			c.truncated = true
			return
		}
		copy(next, colors)
		// A fresh color above every rank individualizes the pick; refinement
		// then propagates the distinction through its neighborhood.
		next[pick] = c.n + len(prefix)
		c.placed[pick] = true
		c.search(c.refine(next, spare), append(prefix, pick))
		c.placed[pick] = false
	}
}

// leaf encodes one complete ordering and keeps it if it is the smallest
// so far.
func (c *canonicalizer) leaf(perm []int) {
	c.encode(perm)
	if c.bestSet && bytes.Compare(c.enc, c.best) >= 0 {
		return
	}
	c.best, c.enc, c.bestSet = c.enc, c.best[:0], true
	copy(c.out.RelFrom, perm)
	for rank, cl := range c.classes {
		c.out.EqFrom[rank] = int(cl.id)
	}
}

// encode renders the full semantic encoding under the given relation
// ordering (perm[new] = old query-local index) into c.enc, leaving the
// classes sorted by rendering in c.classes.
func (c *canonicalizer) encode(perm []int) {
	for newIdx, old := range perm {
		c.inv[old] = newIdx
	}
	c.arena = c.arena[:0]
	// Join structure: the equivalence classes of the implied-edge closure,
	// each a sorted member list of relabeled (relation, column) references.
	c.classes = c.classes[:0]
	for k := 0; k < c.q.numEq; k++ {
		c.parts = c.parts[:0]
		for _, m := range c.q.eqMembers[c.q.eqStart[k]:c.q.eqStart[k+1]] {
			off := len(c.arena)
			c.appendInt(c.inv[m.rel])
			c.arena = append(c.arena, '.')
			c.appendInt(int(m.col))
			c.parts = append(c.parts, c.mark(off))
		}
		off := len(c.arena)
		c.appendSorted(c.parts, ',')
		c.classes = append(c.classes, classSpan{c.mark(off), int32(k)})
	}
	var orderClass span
	oe := c.q.OrderEqClass()
	if oe >= 0 {
		orderClass = c.classes[oe].span
	}
	slices.SortFunc(c.classes, func(a, b classSpan) int { return c.compare(a.span, b.span) })
	// Normalized filters.
	c.parts = c.parts[:0]
	for _, f := range c.filters {
		off := len(c.arena)
		c.appendInt(c.inv[f.rel])
		c.arena = append(c.arena, '.')
		c.appendInt(f.col)
		c.arena = append(c.arena, '<')
		c.arena = strconv.AppendInt(c.arena, f.bound, 10)
		c.parts = append(c.parts, c.mark(off))
	}
	slices.SortFunc(c.parts, c.compare)

	e := append(c.enc[:0], "q1|R:"...)
	for newIdx, old := range perm {
		if newIdx > 0 {
			e = append(e, ',')
		}
		e = strconv.AppendInt(e, int64(c.q.Rels[old]), 10)
	}
	e = append(e, "|J:"...)
	for k, cl := range c.classes {
		if k > 0 {
			e = append(e, ';')
		}
		e = append(e, c.arena[cl.off:cl.end]...)
	}
	e = append(e, "|F:"...)
	for k, sp := range c.parts {
		if k > 0 {
			e = append(e, ';')
		}
		e = append(e, c.arena[sp.off:sp.end]...)
	}
	e = append(e, "|O:"...)
	switch o := c.q.OrderBy; {
	case o == nil:
		e = append(e, '-')
	case oe >= 0:
		// Ordering on a join column: any member of the class delivers the
		// same output order, so the class itself is the canonical target.
		e = append(e, c.arena[orderClass.off:orderClass.end]...)
	default:
		e = strconv.AppendInt(e, int64(c.inv[o.Rel]), 10)
		e = append(e, '.')
		e = strconv.AppendInt(e, int64(o.Col), 10)
	}
	c.enc = e
}
