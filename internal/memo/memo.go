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

	"sdpopt/internal/bits"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
)

// ErrBudget is returned when an optimization exceeds its simulated memory
// budget — the analogue of the paper's algorithms running out of physical
// memory (the "*" entries in its tables).
var ErrBudget = errors.New("memo: simulated memory budget exceeded")

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
	// pathSet holds the retained plans: Best, the cheapest plan for the
	// class, plus the cheapest plan per interesting order.
	pathSet
	// Nbrs caches the join-graph neighborhood of Set (the memo's Nbrs
	// callback, evaluated once at class creation), so the enumerator's
	// connectivity test is a single AND against a candidate's Set instead
	// of a per-pair Neighbors recomputation.
	Nbrs bits.Set

	seq  int
	dead bool
}

// Seq returns the class's creation index within its level, counting pruned
// classes. It indexes the enumerator's per-level visited stamps and orders
// gathered candidates identically to the level's creation order.
func (c *Class) Seq() int { return c.seq }

// Alive reports whether the class is still in the memo. The by-relation
// index's membership bitmaps are not compacted on Remove; walks mask with
// the alive bitmap instead, and out-of-band consumers check this.
func (c *Class) Alive() bool { return !c.dead }

// FeatureVector returns the [R,C,S] vector used by SDP's skyline pruning.
func (c *Class) FeatureVector() FV {
	return FV{Rows: c.Rows, Cost: c.Best.Cost, Sel: c.Sel}
}

// OrderedPlan pairs an order equivalence class with the cheapest retained
// plan delivering that order.
type OrderedPlan struct {
	Order int
	Plan  *plan.Plan
}

// pathSet is the retained-path set of one class under PostgreSQL's add_path
// dominance rule restricted to the (cost, order) criteria this model
// tracks: the cheapest plan, plus the cheapest plan per interesting order.
// Class and Staged both hold one, so the sequential memo and the parallel
// staging table retain by the same rule — offer — by construction.
type pathSet struct {
	// Best is the cheapest plan offered so far.
	Best *plan.Plan
	// ordered holds the cheapest plan per order equivalence class, sorted
	// by ascending order id. A class retains very few ordered plans (one
	// per interesting order of its join columns), and offer re-counts
	// retained paths on every candidate, so this is a small sorted slice
	// rather than a map: slice scans cost a few compares where map
	// iteration — with its per-iteration random seeding — dominated CPU
	// profiles of enumeration-bound runs.
	ordered []OrderedPlan
}

// offer retains p if it improves the cheapest plan or the cheapest plan for
// its output order, and returns the change in the retained-path count (it
// can be negative when a new best displaces an ordered path it also covers)
// and whether p was retained. Cost ties break on plan.Compare's canonical
// structural order, so the retained plans are a function of the candidate
// set alone, not of arrival order — the determinism contract that lets
// parallel workers offer in any interleaving.
func (ps *pathSet) offer(p *plan.Plan) (delta int, kept bool) {
	before := ps.numPaths()
	if ps.Best == nil || better(p, ps.Best) {
		ps.Best = p
		kept = true
	}
	if p.Order != plan.NoOrder {
		if cur, ok := ps.OrderedPlan(p.Order); !ok || better(p, cur) {
			ps.ordered = orderedPut(ps.ordered, p.Order, p)
			kept = true
		}
	}
	// A new Best may dominate previously retained ordered paths that cost
	// more but deliver an order Best also delivers.
	if kept && ps.Best.Order != plan.NoOrder {
		if cur, ok := ps.OrderedPlan(ps.Best.Order); !ok || better(ps.Best, cur) {
			ps.ordered = orderedPut(ps.ordered, ps.Best.Order, ps.Best)
		}
	}
	return ps.numPaths() - before, kept
}

// Admits reports whether offer could retain a candidate of the given cost
// and output order. It is false only when offer would certainly drop the
// candidate — it costs more than Best and, if ordered, more than the retained
// plan of its order — so a caller holding a costed but unbuilt candidate can
// skip building it: offering it would keep nothing and return delta 0. Cost
// ties are admitted, because offer breaks them with plan.Compare on the built
// tree. Retained costs only ever fall, so a false answer stays false.
func (ps *pathSet) Admits(cost float64, order int) bool {
	if ps.Best == nil || cost <= ps.Best.Cost {
		return true
	}
	if order == plan.NoOrder {
		return false
	}
	cur, ok := ps.OrderedPlan(order)
	return !ok || cost <= cur.Cost
}

// OrderedPlan returns the cheapest retained plan delivering the given
// order equivalence class, if any.
func (ps *pathSet) OrderedPlan(order int) (*plan.Plan, bool) {
	for i := range ps.ordered {
		if ps.ordered[i].Order == order {
			return ps.ordered[i].Plan, true
		}
		if ps.ordered[i].Order > order {
			break
		}
	}
	return nil, false
}

// orderedPut inserts or replaces the plan for an order id, keeping the
// slice sorted by ascending order.
func orderedPut(s []OrderedPlan, order int, p *plan.Plan) []OrderedPlan {
	i := 0
	for ; i < len(s); i++ {
		if s[i].Order == order {
			s[i].Plan = p
			return s
		}
		if s[i].Order > order {
			break
		}
	}
	if s == nil {
		// Sized once: a class retains a handful of ordered plans, and growing
		// from nil by append reallocates at 1, 2 and 4.
		s = make([]OrderedPlan, 0, 4)
	}
	s = append(s, OrderedPlan{})
	copy(s[i+1:], s[i:])
	s[i] = OrderedPlan{Order: order, Plan: p}
	return s
}

// numPaths counts the distinct retained plans — Best plus every ordered
// plan that is not Best itself — the count simulated memory is charged on.
func (ps *pathSet) numPaths() int {
	n := 0
	if ps.Best != nil {
		n = 1
	}
	for i := range ps.ordered {
		if ps.ordered[i].Plan != ps.Best {
			n++
		}
	}
	return n
}

// Paths returns the distinct retained plans: Best plus every ordered plan
// that is not Best itself.
func (ps *pathSet) Paths() []*plan.Plan {
	return ps.AppendPaths(make([]*plan.Plan, 0, 1+len(ps.ordered)))
}

// AppendPaths appends the distinct retained plans to dst in Paths order:
// Best first, then ordered plans by ascending order class. The enumeration
// hot path passes a reused scratch slice (dst[:0]) so the per-pair path
// lookup stops allocating once the scratch has grown.
func (ps *pathSet) AppendPaths(dst []*plan.Plan) []*plan.Plan {
	if ps.Best != nil {
		dst = append(dst, ps.Best)
	}
	for i := range ps.ordered {
		if p := ps.ordered[i].Plan; p != ps.Best {
			dst = append(dst, p)
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
	c := &Class{Set: set, Level: level, Rows: rows, Sel: sel}
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
	d, kept := c.offer(p)
	if d != 0 {
		m.Stats.PathsRetained += int64(d)
		if err := m.addSim(int64(d) * SimPathBytes); err != nil {
			return kept, err
		}
	}
	return kept, nil
}

// better is plan.Less with the cost comparison inlined: it runs once per
// candidate plan on the enumeration hot path, where cost ties are rare
// enough that the structural tie-break (plan.Compare's canonical order —
// the determinism contract) stays off the fast path.
func better(p, cur *plan.Plan) bool {
	if p.Cost != cur.Cost {
		return p.Cost < cur.Cost
	}
	return plan.Less(p, cur)
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

// LevelAlive returns len(Level(k)) without building the slice.
func (m *Memo) LevelAlive(k int) int {
	if k < 0 || k >= len(m.byLevel) {
		return 0
	}
	n := 0
	for _, c := range m.byLevel[k] {
		if !c.dead {
			n++
		}
	}
	return n
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
