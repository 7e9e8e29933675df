package memo

import (
	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/plan"
)

// noSlot marks an empty slot reference.
const noSlot = -1

// path is one retained path, a pointer-free value in the memo's path arena: a
// join candidate as the kernel costed it, its Outer and Inner the slots of
// its inputs, or a leaf path — a scan's fields, or a plan held whole. A
// class's slot of an order is allocated when it first retains that order, and
// a better path overwrites it in place: nothing reads a slot as an input
// before its class is complete (the level barrier).
type path struct {
	cost.JoinCand
	rel  int32  // the relation a scan reads
	plan int32  // 1 + the index in Memo.plans of a plan held whole, else 0
	cls  int32  // the class the path belongs to
	id   uint32 // the offer that produced it, counting from 1 within the class
	next int32  // the class's next ordered slot, by ascending order
}

// offer retains p if it improves the cheapest path or the cheapest path for
// its output order — PostgreSQL's add_path rule restricted to (cost, order) —
// and returns the change in the class's retained-path count (negative when a
// new best displaces an ordered path it also covers; best and an ordered slot
// holding one offer count once) and whether p was retained. Cost ties break on
// plan.Compare's order of the trees the paths would build into (compare), so
// the retained paths do not depend on arrival order: the determinism contract
// that lets the enumerators, which offer in different orders, agree.
func (m *Memo) offer(c *Class, p *path) (delta int, kept bool) {
	before := m.numPaths(c)
	c.lastID++
	p.id = c.lastID
	var best *path
	var prevBest uint32
	if c.best != noSlot {
		best = m.paths.at(c.best)
		prevBest = best.id
	}
	beatsBest := best == nil || m.better(p, best)
	if beatsBest {
		if best == nil {
			c.best, best = m.paths.add()
		}
		*best = *p
		c.bestCost, c.bestDup = p.Cost, false
	}
	kept = beatsBest
	if p.Order != plan.NoOrder {
		// A slot holding the previous best was decided above, and is
		// overwritten only by a new best.
		if _, cur := m.orderedSlot(c, p.Order); cur == nil || cur.id == prevBest && beatsBest || cur.id != prevBest && m.better(p, cur) {
			m.orderedPut(c, p)
			c.bestDup = c.bestDup || beatsBest
			kept = true
		}
	}
	if !kept {
		return 0, false
	}
	// A new best may dominate a previously retained ordered path that costs
	// more but delivers an order best also delivers.
	if best.Order != plan.NoOrder {
		if _, cur := m.orderedSlot(c, best.Order); cur == nil || m.better(best, cur) {
			m.orderedPut(c, best)
			c.bestDup = true
		}
	}
	return m.numPaths(c) - before, true
}

// better reports whether x precedes y in plan.Compare's order: by cost, and
// on a cost tie by the structure of the trees the two paths would build into,
// walked through their slots. One offer is never better than itself.
func (m *Memo) better(x, y *path) bool {
	if x.Cost != y.Cost {
		return x.Cost < y.Cost
	}
	return x.id != y.id && m.compare(m.node(x), m.node(y)) < 0
}

// orderedSlot returns c's slot of the given order and its path, or noSlot
// and nil.
func (m *Memo) orderedSlot(c *Class, order int) (int32, *path) {
	for s := c.ordered; s != noSlot; {
		x := m.paths.at(s)
		if x.Order >= order {
			if x.Order == order {
				return s, x
			}
			break
		}
		s = x.next
	}
	return noSlot, nil
}

// orderedPut stores p in c's slot of p's order, allocating the slot and
// linking it in order if c has none.
func (m *Memo) orderedPut(c *Class, p *path) {
	link := &c.ordered
	for *link != noSlot {
		x := m.paths.at(*link)
		if x.Order == p.Order {
			next := x.next
			*x = *p
			x.next = next
			return
		}
		if x.Order > p.Order {
			break
		}
		link = &x.next
	}
	s, x := m.paths.add()
	*x = *p
	x.next = *link
	*link = s
	c.nOrdered++
}

// numPaths counts c's distinct retained paths — best plus every ordered
// path that is not best itself — the count simulated memory is charged on.
func (m *Memo) numPaths(c *Class) int {
	switch {
	case c.best == noSlot:
		return 0
	case c.bestDup:
		return int(c.nOrdered)
	}
	return 1 + int(c.nOrdered)
}

// eachPath calls fn with the slot of each of c's distinct retained paths:
// best first, then ordered paths by ascending order.
func (m *Memo) eachPath(c *Class, fn func(s int32)) {
	if c.best == noSlot {
		return
	}
	fn(c.best)
	bestID := m.paths.at(c.best).id
	for s := c.ordered; s != noSlot; {
		x := m.paths.at(s)
		if x.id != bestID {
			fn(s)
		}
		s = x.next
	}
}

// Bar snapshots c's admission bar into b: the cost of its best and of each
// retained ordered path, or the open bar while c holds nothing. A candidate
// the bar does not admit, offer would drop with delta 0, so a caller can skip
// offering it. Cost ties are admitted: offer breaks them on the trees.
// Retained costs only fall, so what a bar rejects, later bars reject too.
func (m *Memo) Bar(c *Class, b *cost.Bar) {
	if c.best == noSlot {
		b.Open()
		return
	}
	b.Reset(c.bestCost)
	for s := c.ordered; s != noSlot; {
		x := m.paths.at(s)
		b.Ordered(x.Order, x.Cost)
		s = x.next
	}
}

// AppendInputs appends c's distinct retained paths to dst, in eachPath order,
// as join inputs named by their slots, for the kernel to cost candidates over
// and offer back (AddCand).
func (m *Memo) AppendInputs(dst []cost.Input, c *Class) []cost.Input {
	m.eachPath(c, func(s int32) {
		x := m.paths.at(s)
		in := cost.Input{Cost: x.Cost, Rows: x.Rows, Order: x.Order, Rel: -1, Ref: s}
		if x.Op.IsScan() {
			in.Rel = int(x.rel)
		}
		dst = append(dst, in)
	})
	return dst
}

// Best returns the tree of c's cheapest retained path, or nil.
func (m *Memo) Best(c *Class) *plan.Plan {
	if c.best == noSlot {
		return nil
	}
	return m.build(c.best)
}

// OrderedPlan returns the tree of c's cheapest retained path delivering the
// given order equivalence class, if any.
func (m *Memo) OrderedPlan(c *Class, order int) (*plan.Plan, bool) {
	s, _ := m.orderedSlot(c, order)
	if s == noSlot {
		return nil, false
	}
	return m.build(s), true
}

// Paths returns the trees of c's distinct retained paths: best first, then
// ordered paths by ascending order class.
func (m *Memo) Paths(c *Class) []*plan.Plan {
	var out []*plan.Plan
	m.eachPath(c, func(s int32) { out = append(out, m.build(s)) })
	return out
}

// build returns the plan tree of slot s: a scan node, the plan held whole, or
// the join built over its inputs' trees — for an indexed nested loop's inner,
// the model's shared IndexScan, which BuildJoin puts there anyway.
func (m *Memo) build(s int32) *plan.Plan {
	x := m.paths.at(s)
	switch {
	case x.plan != 0:
		return m.plans[x.plan-1]
	case x.Op.IsScan():
		return &plan.Plan{Op: x.Op, Rels: bits.Single(int(x.rel)), Rel: int(x.rel), Cost: x.Cost, Rows: x.Rows, Order: x.Order}
	}
	var inner *plan.Plan
	if x.Op == plan.IndexNestLoop {
		inner = m.Model.ProbedScan(int(m.paths.at(x.Inner).rel))
	}
	if inner == nil {
		inner = m.build(x.Inner)
	}
	return m.Model.BuildJoin(x.JoinCand, m.build(x.Outer), inner)
}

// node addresses a node of a tree build would make, without making it: a
// path's own, the Sort a merge join puts over an input path (sorted), or a
// plan's node — a plan held whole, or the IndexScan under an indexed nested
// loop. The zero node is an absent child.
type node struct {
	p        *path
	t        *plan.Plan
	sortCost float64
	order    int32 // the Sort's
	sorted   bool
}

// node returns x's node.
func (m *Memo) node(x *path) node {
	if x.plan != 0 {
		return node{t: m.plans[x.plan-1]}
	}
	return node{p: x}
}

// input returns the node a merge join on order reads input slot s through: a
// Sort costing cost over it unless it is ordered on the class already.
func (m *Memo) input(s int32, order int, cost float64) node {
	x := m.paths.at(s)
	if x.Order != order {
		return node{p: x, sorted: true, order: int32(order), sortCost: cost}
	}
	return m.node(x)
}

func (n node) absent() bool { return n.p == nil && n.t == nil }

// head returns the fields plan.Compare reads of n's node before its
// relations and children; a join node's Rel is 0, as BuildJoin leaves it.
func (n node) head() (cost float64, op plan.Op, order, rel int) {
	switch {
	case n.t != nil:
		return n.t.Cost, n.t.Op, n.t.Order, n.t.Rel
	case n.sorted:
		return n.sortCost, plan.Sort, int(n.order), 0
	case n.p.Op.IsScan():
		rel = int(n.p.rel)
	}
	return n.p.Cost, n.p.Op, n.p.Order, rel
}

// rels is the relations n's node covers: a path's are its class's set, as a
// plan offered to a class covers the class's relations.
func (m *Memo) rels(n node) bits.Set {
	if n.t != nil {
		return n.t.Rels
	}
	return m.cls.at(n.p.cls).Set
}

// left and right return n's children as build makes them.
func (m *Memo) left(n node) node {
	switch {
	case n.t != nil:
		return node{t: n.t.Left}
	case n.sorted:
		return m.node(n.p)
	case n.p.Op.IsScan():
		return node{}
	case n.p.Op == plan.MergeJoin:
		return m.input(n.p.Outer, n.p.Order, n.p.OuterCost)
	}
	return m.node(m.paths.at(n.p.Outer))
}

func (m *Memo) right(n node) node {
	switch {
	case n.t != nil:
		return node{t: n.t.Right}
	case n.sorted || n.p.Op.IsScan():
		return node{}
	case n.p.Op == plan.MergeJoin:
		return m.input(n.p.Inner, n.p.Order, n.p.InnerCost)
	case n.p.Op == plan.IndexNestLoop:
		return node{t: m.Model.ProbedScan(int(m.paths.at(n.p.Inner).rel))}
	}
	return m.node(m.paths.at(n.p.Inner))
}

// compare is plan.Compare over the trees of a and b, walked through the
// slots. The common ties end at the left children: a merge join and its
// mirror differ in their left children's costs, and two indexed nested loops
// over one outer probing one relation have the same children, whichever scan
// of that relation each was given as its inner.
func (m *Memo) compare(a, b node) int {
	switch {
	case a == b:
		return 0
	case a.absent():
		return -1
	case b.absent():
		return 1
	}
	ac, aop, aorder, arel := a.head()
	bc, bop, border, brel := b.head()
	switch {
	case ac < bc:
		return -1
	case ac > bc:
		return 1
	}
	if a.t != nil || b.t != nil || a.p.cls != b.p.cls {
		if c := m.rels(a).Compare(m.rels(b)); c != 0 {
			return c
		}
	}
	switch {
	case aop != bop:
		return int(aop) - int(bop)
	case aorder != border:
		return aorder - border
	case arel != brel:
		return arel - brel
	}
	if c := m.compare(m.left(a), m.left(b)); c != 0 {
		return c
	}
	return m.compare(m.right(a), m.right(b))
}
