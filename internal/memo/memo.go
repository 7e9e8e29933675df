// Package memo implements the dynamic-programming memo table: one class per
// join-composite relation (JCR), each retaining its cheapest plan plus the
// cheapest plan per interesting order, exactly as PostgreSQL's RelOptInfo
// path lists do.
//
// The memo also carries the optimization-overhead accounting the paper
// reports: a simulated memory model calibrated to PostgreSQL 8.1's per-class
// and per-path footprint, with a feasibility budget. The paper's "DP is
// infeasible beyond a 16-relation star on a 1 GB machine" cliff is
// reproduced by this model rather than by physically exhausting RAM — Go's
// lean structs would otherwise move the cliff far out (see DESIGN.md,
// Substitutions).
package memo

import (
	"errors"
	"fmt"
	"math"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
)

// ErrBudget is returned when an optimization exceeds its simulated memory
// budget — the analogue of the paper's algorithms running out of physical
// memory (the "*" entries in its tables).
var ErrBudget = errors.New("memo: simulated memory budget exceeded")

// ErrReadOffer is returned for an offer to a class that has already been
// read. The engine reads a class only once it is complete — at the DPsize
// level barrier, and in DPccp's emission order — so this fails only if that
// invariant breaks; it is what makes building on first read safe.
var ErrReadOffer = errors.New("memo: offer to a class that has already been read")

// Simulated per-object footprints, loosely calibrated to PostgreSQL 8.1's
// RelOptInfo and Path allocations so that exhaustive DP on a 16-relation
// star lands near the paper's 326 MB (Table 2.1).
const (
	SimClassBytes = 4096
	SimPathBytes  = 2048
)

// DefaultBudget is the default feasibility budget: the 1 GB of physical
// memory on the paper's experimental machines.
const DefaultBudget = int64(1) << 30

// FV is a JCR feature vector [Rows, Cost, Selectivity] — the three
// attributes SDP's skyline pruning operates on (paper Figure 2.3).
type FV struct {
	Rows, Cost, Sel float64
}

// Class is one memo entry: a JCR plus its retained plans.
type Class struct {
	// Set is the base relations this JCR covers.
	Set bits.Set
	// Level is the number of leaves (base relations, or compound relations
	// in IDP's reduced problems) joined so far; classes enter the DP at
	// level Len(leaves).
	Level int
	// Rows and Sel are the JCR's shared cardinality and selectivity
	// features; every plan of the class produces the same output.
	Rows, Sel float64
	// pathSet holds the retained paths: the cheapest for the class, plus the
	// cheapest per interesting order.
	pathSet
	// Nbrs caches the join-graph neighborhood of Set (the memo's Nbrs
	// callback, evaluated once at class creation), so the enumerator's
	// connectivity test is a single AND against a candidate's Set instead
	// of a per-pair Neighbors recomputation.
	Nbrs bits.Set

	// model builds the class's retained join candidates on first read (the
	// memo's Model at creation).
	model *cost.Model
	seq   int
	dead  bool
}

// Seq returns the class's creation index within its level, counting pruned
// classes. It indexes the enumerator's per-level visited stamps and orders
// gathered candidates identically to the level's creation order.
func (c *Class) Seq() int { return c.seq }

// Alive reports whether the class is still in the memo. The by-relation
// index's membership bitmaps are not compacted on Remove; walks mask with
// the alive bitmap instead, and out-of-band consumers check this.
func (c *Class) Alive() bool { return !c.dead }

// FeatureVector returns the [R,C,S] vector used by SDP's skyline pruning. It
// reads costs only, so it builds nothing.
func (c *Class) FeatureVector() FV {
	return FV{Rows: c.Rows, Cost: c.BestCost(), Sel: c.Sel}
}

// BestCost returns the cost of the cheapest retained path (+Inf when none is
// retained) without building it.
func (c *Class) BestCost() float64 {
	if c.best.id == 0 {
		return math.Inf(1)
	}
	return c.best.cost()
}

// Best returns the cheapest retained plan, or nil, building it if it is
// still a candidate. Like every read that returns a tree, it closes the class
// to further offers.
func (c *Class) Best() *plan.Plan {
	c.read = true
	if c.best.id == 0 {
		return nil
	}
	return c.built(&c.best, c.model)
}

// OrderedPlan returns the cheapest retained plan delivering the given order
// equivalence class, if any, building it if it is still a candidate. It
// closes the class to further offers.
func (c *Class) OrderedPlan(order int) (*plan.Plan, bool) {
	c.read = true
	x := c.orderedPath(order)
	if x == nil {
		return nil, false
	}
	return c.built(x, c.model), true
}

// Paths returns the distinct retained plans: Best plus every ordered plan
// that is not Best itself.
func (c *Class) Paths() []*plan.Plan {
	return c.AppendPaths(make([]*plan.Plan, 0, 1+len(c.ordered)))
}

// AppendPaths appends the distinct retained plans to dst in Paths order —
// Best first, then ordered plans by ascending order class — building every
// one still held as a candidate, and closes the class to further offers. The
// enumeration hot path passes a reused scratch slice (dst[:0]) so the
// per-pair path lookup stops allocating once the scratch has grown.
func (c *Class) AppendPaths(dst []*plan.Plan) []*plan.Plan {
	return c.appendPaths(dst, c.model)
}

// path is one retained path: a built plan, or a costed join candidate that is
// built (cost.Model.BuildJoin) the first time a reader needs the tree. id
// names the offer that produced it, counting from 1 within the path set, so
// Best and an ordered slot holding one offer count as one retained path and
// build into one node; 0 marks an empty slot.
type path struct {
	plan *plan.Plan
	cand cost.JoinCand
	id   uint32
}

func (p *path) cost() float64 {
	if p.plan != nil {
		return p.plan.Cost
	}
	return p.cand.Cost
}

func (p *path) order() int {
	if p.plan != nil {
		return p.plan.Order
	}
	return p.cand.Order
}

// pathSet is the retained-path set of one class under PostgreSQL's add_path
// dominance rule restricted to the (cost, order) criteria this model
// tracks: the cheapest path, plus the cheapest path per interesting order.
//
// Retention decides on (cost, order) alone, so a join candidate is retained
// as the value the kernel costed and built only when read: nearly every
// retained candidate is displaced by a cheaper one before its class is
// complete, or pruned with its class by SDP, and those are never built.
type pathSet struct {
	// best is the cheapest path offered so far.
	best path
	// ordered holds the cheapest path per order equivalence class, sorted
	// by ascending order id. A class retains very few ordered paths (one
	// per interesting order of its join columns), and offer re-counts
	// retained paths on every candidate, so this is a small sorted slice
	// rather than a map: slice scans cost a few compares where map
	// iteration — with its per-iteration random seeding — dominated CPU
	// profiles of enumeration-bound runs.
	ordered []path
	// lastID is the id of the latest offer.
	lastID uint32
	// read is set by the first read that returns a tree; offers after it
	// fail (Memo.AddPlan, Memo.AddCand).
	read bool
}

// offer retains p if it improves the cheapest path or the cheapest path for
// its output order, and returns the change in the retained-path count (it
// can be negative when a new best displaces an ordered path it also covers)
// and whether p was retained. Cost ties break on plan.Compare's canonical
// structural order of the trees the paths are or would become, so the
// retained paths are a function of the candidate set alone, not of arrival
// order: the determinism contract that lets the enumerators, which offer in
// different orders, retain the same paths. m lays candidates out for the tie-break and may be nil when
// every path is built.
func (ps *pathSet) offer(p path, m *cost.Model) (delta int, kept bool) {
	before := ps.numPaths()
	ps.lastID++
	p.id = ps.lastID
	prevBest := ps.best.id
	beatsBest := prevBest == 0 || ps.better(&p, &ps.best, m)
	if beatsBest {
		ps.best = p
		kept = true
	}
	if o := p.order(); o != plan.NoOrder {
		cur := ps.orderedPath(o)
		// The ordered slot often holds the previous best itself: the
		// comparison above already decided it.
		if cur == nil || (cur.id == prevBest && beatsBest) || (cur.id != prevBest && ps.better(&p, cur, m)) {
			ps.orderedPut(p)
			kept = true
		}
	}
	// A new best may dominate previously retained ordered paths that cost
	// more but deliver an order best also delivers.
	if o := ps.best.order(); kept && o != plan.NoOrder {
		if cur := ps.orderedPath(o); cur == nil || ps.better(&ps.best, cur, m) {
			ps.orderedPut(ps.best)
		}
	}
	return ps.numPaths() - before, kept
}

// better reports whether x precedes y in plan.Compare's order: by cost, and
// on a cost tie by the structure of the trees the two paths are or would
// become, compared without building them (cost.Model.CompareJoins). One offer
// is never better than itself.
func (ps *pathSet) better(x, y *path, m *cost.Model) bool {
	if cx, cy := x.cost(), y.cost(); cx != cy {
		return cx < cy
	}
	if x.id == y.id {
		return false
	}
	return m.CompareJoins(x.plan, &x.cand, y.plan, &y.cand) < 0
}

// built returns x's tree, building a candidate with m and storing the tree in
// every slot holding the same offer.
func (ps *pathSet) built(x *path, m *cost.Model) *plan.Plan {
	if x.plan != nil {
		return x.plan
	}
	p := m.BuildJoin(x.cand)
	x.plan = p
	if ps.best.id == x.id {
		ps.best.plan = p
	}
	for i := range ps.ordered {
		if ps.ordered[i].id == x.id {
			ps.ordered[i].plan = p
		}
	}
	return p
}

// Bar snapshots the set's admission bar into b: the cost of Best and of each
// retained ordered path, or the open bar while the set is empty. A candidate
// the bar does not admit, offer would certainly drop — it costs more than
// Best and, if ordered, more than the retained path of its order — so a
// caller holding a costed candidate can skip offering it: offering it would
// keep nothing and return delta 0. Cost ties are admitted, because offer
// breaks them with plan.Compare on the trees. Retained costs only ever fall,
// so a candidate a bar rejects, any later bar of the set rejects too. Bar
// reads costs only and builds nothing.
func (ps *pathSet) Bar(b *cost.Bar) {
	if ps.best.id == 0 {
		b.Open()
		return
	}
	b.Reset(ps.best.cost())
	for i := range ps.ordered {
		b.Ordered(ps.ordered[i].order(), ps.ordered[i].cost())
	}
}

// orderedPath returns the retained path of the given order equivalence
// class, or nil.
func (ps *pathSet) orderedPath(order int) *path {
	for i := range ps.ordered {
		o := ps.ordered[i].order()
		if o == order {
			return &ps.ordered[i]
		}
		if o > order {
			break
		}
	}
	return nil
}

// orderedPut inserts or replaces the path for p's order, keeping the slice
// sorted by ascending order.
func (ps *pathSet) orderedPut(p path) {
	s, order := ps.ordered, p.order()
	i := 0
	for ; i < len(s); i++ {
		o := s[i].order()
		if o == order {
			s[i] = p
			return
		}
		if o > order {
			break
		}
	}
	if s == nil {
		// A set not made by newPathSet: grown from nil by append it would
		// reallocate at 1, 2 and 4.
		s = make([]path, 0, 4)
	}
	s = append(s, path{})
	copy(s[i+1:], s[i:])
	s[i] = p
	ps.ordered = s
}

// newPathSet returns the empty path set of a class covering set. Its ordered
// slice is sized once, to the relations the class covers: the orders a
// class can retain are those of its join columns' equivalence classes, about
// one per relation on the cold-enum templates (up to 11 on a Star-12's
// classes). Grown from four by append, the slice reallocated at five and at
// nine, which made it the largest source of the memo's allocated bytes.
func newPathSet(set bits.Set) pathSet {
	return pathSet{ordered: make([]path, 0, set.Len())}
}

// numPaths counts the distinct retained paths — best plus every ordered
// path that is not best itself — the count simulated memory is charged on.
func (ps *pathSet) numPaths() int {
	n := 0
	if ps.best.id != 0 {
		n = 1
	}
	for i := range ps.ordered {
		if ps.ordered[i].id != ps.best.id {
			n++
		}
	}
	return n
}

// appendPaths appends the distinct retained paths' trees to dst, best first,
// then ordered paths by ascending order class, building candidates with m,
// and marks the set read.
func (ps *pathSet) appendPaths(dst []*plan.Plan, m *cost.Model) []*plan.Plan {
	ps.read = true
	if ps.best.id != 0 {
		dst = append(dst, ps.built(&ps.best, m))
	}
	for i := range ps.ordered {
		if x := &ps.ordered[i]; x.id != ps.best.id {
			dst = append(dst, ps.built(x, m))
		}
	}
	return dst
}

// Stats aggregates the optimization overheads the paper's tables report.
type Stats struct {
	// ClassesCreated counts JCR classes ever created (including later
	// pruned ones).
	ClassesCreated int64
	// ClassesAlive counts classes currently in the memo.
	ClassesAlive int64
	// PathsRetained counts plans currently retained across alive classes.
	PathsRetained int64
	// SimBytes is the current simulated memory consumption.
	SimBytes int64
	// PeakSimBytes is the high-water mark of SimBytes — the "Memory (in
	// MB)" column of the paper's overhead tables.
	PeakSimBytes int64
}

// PeakMB returns the peak simulated memory in megabytes.
func (s *Stats) PeakMB() float64 { return float64(s.PeakSimBytes) / (1 << 20) }

// Memo is the DP table.
type Memo struct {
	classes map[bits.Set]*Class
	byLevel [][]*Class
	// idx[level] is the level's adjacency index: per-relation membership
	// bitmaps over class sequence numbers. Together with Class.Nbrs it
	// gives the enumerator its indexed candidate walk — a few word-wide
	// OR/AND-NOT operations compute exactly the alive classes that are
	// connected to and disjoint from a left class (see Walker.Gather).
	idx []levelIndex
	// Nbrs, when set (the DP engine installs the query's Neighbors before
	// seeding level 1), computes the neighborhood cached on each new class.
	Nbrs func(bits.Set) bits.Set
	// Model builds the join candidates new classes retain, each on its
	// class's first read; the DP engine and IDP2 install their cost model
	// before creating any class. A class created without one accepts built
	// plans only.
	Model *cost.Model
	// Budget is the simulated-memory feasibility limit in bytes; 0 means
	// unlimited.
	Budget int64
	Stats  Stats

	// Metric handles, resolved once by Observe; nil (a no-op) by default.
	// The gauges aggregate across every live memo sharing the registry, so
	// a metrics endpoint sees total alive classes and simulated bytes of
	// all concurrent optimizations.
	cCreated, cPruned   *obs.Counter
	gAlive, gSim, gPeak *obs.Gauge
}

// New returns an empty memo with the given simulated-memory budget
// (0 = unlimited).
func New(budget int64) *Memo {
	return &Memo{classes: map[bits.Set]*Class{}, Budget: budget}
}

// Observe registers the memo's class/memory accounting with o's metrics
// registry. A nil observer keeps telemetry off (the default).
func (m *Memo) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	m.cCreated = o.Counter(obs.MClassesCreated)
	m.cPruned = o.Counter(obs.MClassesPruned)
	m.gAlive = o.Gauge(obs.MMemoAlive)
	m.gSim = o.Gauge(obs.MMemoSimBytes)
	m.gPeak = o.Gauge(obs.MMemoPeakSimBytes)
}

// Get returns the class covering set, or nil.
func (m *Memo) Get(set bits.Set) *Class {
	c := m.classes[set]
	if c == nil || c.dead {
		return nil
	}
	return c
}

// NewClass creates and registers a class for set at the given leaf level
// with the shared cardinality features. It fails with ErrBudget when the
// simulated memory budget is exhausted and with an error on duplicates.
func (m *Memo) NewClass(set bits.Set, level int, rows, sel float64) (*Class, error) {
	if set.IsEmpty() {
		return nil, fmt.Errorf("memo: empty class set")
	}
	if existing := m.classes[set]; existing != nil && !existing.dead {
		return nil, fmt.Errorf("memo: class %v already exists", set)
	}
	c := &Class{Set: set, Level: level, Rows: rows, Sel: sel, pathSet: newPathSet(set), model: m.Model}
	if m.Nbrs != nil {
		c.Nbrs = m.Nbrs(set)
	}
	m.classes[set] = c
	for len(m.byLevel) <= level {
		m.byLevel = append(m.byLevel, nil)
		m.idx = append(m.idx, levelIndex{})
	}
	c.seq = len(m.byLevel[level])
	m.byLevel[level] = append(m.byLevel[level], c)
	m.idx[level].add(c.seq, set)
	m.Stats.ClassesCreated++
	m.Stats.ClassesAlive++
	m.cCreated.Add(1)
	m.gAlive.Add(1)
	if err := m.addSim(SimClassBytes); err != nil {
		return nil, err
	}
	return c, nil
}

// AddPlan offers plan p to class c under the pathSet dominance rule and
// charges the retained-path change to the simulated-memory budget. It
// reports whether p was retained.
func (m *Memo) AddPlan(c *Class, p *plan.Plan) (bool, error) {
	return m.add(c, path{plan: p})
}

// AddCand is AddPlan for a costed join candidate: the class retains it by
// its cost and order, and builds it only when first read.
func (m *Memo) AddCand(c *Class, jc cost.JoinCand) (bool, error) {
	if c.model == nil {
		return false, fmt.Errorf("memo: class %v has no cost model to build candidates", c.Set)
	}
	return m.add(c, path{cand: jc})
}

func (m *Memo) add(c *Class, p path) (bool, error) {
	if c.read {
		return false, fmt.Errorf("%w: %v", ErrReadOffer, c.Set)
	}
	d, kept := c.offer(p, c.model)
	if d != 0 {
		m.Stats.PathsRetained += int64(d)
		if err := m.addSim(int64(d) * SimPathBytes); err != nil {
			return kept, err
		}
	}
	return kept, nil
}

// Remove prunes class c from the memo, releasing its simulated memory (the
// peak is unaffected). SDP calls this for JCRs that lose the skyline.
func (m *Memo) Remove(c *Class) {
	if c.dead {
		return
	}
	c.dead = true
	m.idx[c.Level].remove(c.seq)
	delete(m.classes, c.Set)
	m.Stats.ClassesAlive--
	m.Stats.PathsRetained -= int64(c.numPaths())
	m.Stats.SimBytes -= SimClassBytes + int64(c.numPaths())*SimPathBytes
	m.cPruned.Add(1)
	m.gAlive.Add(-1)
	m.gSim.Add(-(SimClassBytes + int64(c.numPaths())*SimPathBytes))
}

// Level returns the alive classes created at leaf level k, in creation
// order.
func (m *Memo) Level(k int) []*Class {
	if k < 0 || k >= len(m.byLevel) {
		return nil
	}
	out := make([]*Class, 0, len(m.byLevel[k]))
	for _, c := range m.byLevel[k] {
		if !c.dead {
			out = append(out, c)
		}
	}
	return out
}

// LevelSize returns the number of classes ever created at leaf level k,
// pruned classes included — the exclusive upper bound on Class.Seq at that
// level, which sizes the enumerator's visited-stamp arrays.
func (m *Memo) LevelSize(k int) int {
	if k < 0 || k >= len(m.byLevel) {
		return 0
	}
	return len(m.byLevel[k])
}

// MaxLevel returns the highest leaf level holding any class.
func (m *Memo) MaxLevel() int { return len(m.byLevel) - 1 }

// Each calls fn for every alive class, in increasing level and creation
// order.
func (m *Memo) Each(fn func(*Class)) {
	for _, lvl := range m.byLevel {
		for _, c := range lvl {
			if !c.dead {
				fn(c)
			}
		}
	}
}

func (m *Memo) addSim(bytes int64) error {
	m.Stats.SimBytes += bytes
	if m.Stats.SimBytes > m.Stats.PeakSimBytes {
		m.Stats.PeakSimBytes = m.Stats.SimBytes
	}
	m.gPeak.SetMax(m.gSim.Add(bytes))
	if m.Budget > 0 && m.Stats.SimBytes > m.Budget {
		return ErrBudget
	}
	return nil
}
