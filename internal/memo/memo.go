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
	mathbits "math/bits"
	"sync"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
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

// Class is one memo entry: a JCR, its shared features, and where its retained
// paths are. It holds no pointers: a class lives by value in the memo's class
// arena, and its paths are slots of the memo's path arena.
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
	// Width is the JCR's output tuple width (0 in a memo without a model).
	Width int
	// Nbrs caches the join-graph neighborhood of Set (the memo's Nbrs
	// callback, evaluated once at class creation), so the enumerator's
	// connectivity test is a single AND against a candidate's Set instead
	// of a per-pair Neighbors recomputation.
	Nbrs bits.Set

	// best is the slot of the cheapest retained path; ordered is the slot of
	// the retained path of the lowest order, the others chained from it
	// through path.next by ascending order (noSlot when empty). nOrdered
	// counts the ordered slots; bestDup says one of them holds best's offer.
	best, ordered, nOrdered int32
	bestCost                float64
	bestDup, dead           bool
	h, seq                  int32  // index in the class arena; creation index within the level
	lastID                  uint32 // id of the latest offer
}

// Seq returns the class's creation index within its level, counting pruned
// classes. It is the class's bit in its level's adjacency index, so gathered
// candidates come out in the level's creation order.
func (c *Class) Seq() int { return int(c.seq) }

// FeatureVector returns the [R,C,S] vector used by SDP's skyline pruning.
func (c *Class) FeatureVector() FV {
	return FV{Rows: c.Rows, Cost: c.BestCost(), Sel: c.Sel}
}

// BestCost returns the cost of the cheapest retained path, +Inf when none is
// retained.
func (c *Class) BestCost() float64 {
	if c.best == noSlot {
		return math.Inf(1)
	}
	return c.bestCost
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

// Memo is the DP table. Its classes and paths are pointer-free values in two
// arenas: the garbage collector does not scan them, and writing them needs no
// write barrier. Trees are built only where read (Best, OrderedPlan, Paths).
//
// A memo's storage outlives it: Release hands the arenas, the class map and
// the level lists to the next New, emptied, so an optimization allocates
// them only when it outgrows every memo released before it.
type Memo struct {
	// classes maps each alive class's set to its index in cls.
	classes map[bits.Set]int32
	cls     arena[Class]
	paths   arena[path]
	// plans holds the non-scan plans offered whole (IDP's compound leaves).
	plans []*plan.Plan
	// levels[k] is leaf level k's classes and adjacency index. Together with
	// Class.Nbrs the index gives the enumerator its indexed candidate walk —
	// a few word-wide OR/AND-NOT operations compute exactly the alive classes
	// that are connected to and disjoint from a left class (see
	// Walker.Gather).
	levels []leafLevel
	// Nbrs, when set (the DP engine installs the query's Neighbors before
	// seeding level 1), computes the neighborhood cached on each new class.
	Nbrs func(bits.Set) bits.Set
	// Model sizes new classes' widths, breaks cost ties between join paths
	// and builds them; the DP engine and IDP2 install their cost model before
	// creating any class. A memo without one accepts plans only.
	Model *cost.Model
	// Budget is the simulated-memory feasibility limit in bytes; 0 means
	// unlimited.
	Budget int64
	Stats  Stats

	// Metric handles, resolved once by Observe; nil (a no-op) by default.
	// The gauges aggregate across every memo sharing the registry until it
	// is released, so a metrics endpoint sees total alive classes and
	// simulated bytes of all running optimizations.
	cCreated, cPruned   *obs.Counter
	gAlive, gSim, gPeak *obs.Gauge
}

// leafLevel is one leaf level of the memo: its classes by index in the class
// arena, in creation order, and its adjacency index.
type leafLevel struct {
	classes []int32
	levelIndex
}

// maxPooledChunks caps the storage Release keeps: a memo whose class or path
// arena has grown past this many chunks (65 520 elements, about 5 MiB of
// paths) is left to the garbage collector. The memos of ordinary queries fit
// well under it; a scale-up run or a budget abort would otherwise pin its
// arenas for the life of the process.
const maxPooledChunks = 12

// pool holds released memos, emptied, for New to reuse.
var pool sync.Pool

// New returns an empty memo with the given simulated-memory budget
// (0 = unlimited), reusing a released memo's storage when there is one.
func New(budget int64) *Memo {
	if m, ok := pool.Get().(*Memo); ok {
		m.Budget = budget
		return m
	}
	return &Memo{classes: map[bits.Set]int32{}, Budget: budget}
}

// Release ends the memo's life: it takes the memo's alive classes and
// simulated bytes off the observer's gauges and hands its storage to the
// next New, unless the storage is over the pool's cap. Nothing may read the
// memo, or a class or plan slot of it, after Release.
func (m *Memo) Release() {
	m.gAlive.Add(-m.Stats.ClassesAlive)
	m.gSim.Add(-m.Stats.SimBytes)
	if len(m.cls.chunks) > maxPooledChunks || len(m.paths.chunks) > maxPooledChunks {
		return
	}
	clear(m.classes)
	clear(m.plans)
	m.cls.n, m.paths.n = 0, 0
	*m = Memo{classes: m.classes, cls: m.cls, paths: m.paths, plans: m.plans[:0], levels: m.levels[:0]}
	pool.Put(m)
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

// Get returns the alive class covering set, or nil.
func (m *Memo) Get(set bits.Set) *Class {
	if h, ok := m.classes[set]; ok {
		return m.cls.at(h)
	}
	return nil
}

// relations is the number of base relations a class of this memo can hold:
// the query's when the memo has a model, else as many as a set can hold.
func (m *Memo) relations() int {
	if m.Model != nil {
		return m.Model.Q.NumRelations()
	}
	return bits.MaxRelations
}

// NewClass creates and registers a class for set at the given leaf level
// with the shared cardinality features. It fails with ErrBudget when the
// simulated memory budget is exhausted and with an error on duplicates.
func (m *Memo) NewClass(set bits.Set, level int, rows, sel float64) (*Class, error) {
	if set.IsEmpty() {
		return nil, fmt.Errorf("memo: empty class set")
	}
	if _, ok := m.classes[set]; ok {
		return nil, fmt.Errorf("memo: class %v already exists", set)
	}
	for len(m.levels) <= level {
		// A released memo's levels beyond len are kept for their buffers.
		if n := len(m.levels); n < cap(m.levels) {
			m.levels = m.levels[:n+1]
		} else {
			m.levels = append(m.levels, leafLevel{})
		}
		m.levels[len(m.levels)-1].reset(m.relations())
	}
	lv := &m.levels[level]
	h, c := m.cls.add()
	*c = Class{Set: set, Level: level, Rows: rows, Sel: sel, best: noSlot, ordered: noSlot, h: h, seq: int32(len(lv.classes))}
	if m.Model != nil {
		c.Width = m.Model.Width(set)
	}
	if m.Nbrs != nil {
		c.Nbrs = m.Nbrs(set)
	}
	m.classes[set] = h
	lv.classes = append(lv.classes, h)
	lv.add(int(c.seq), set)
	m.Stats.ClassesCreated++
	m.Stats.ClassesAlive++
	m.cCreated.Add(1)
	m.gAlive.Add(1)
	if err := m.addSim(SimClassBytes); err != nil {
		return nil, err
	}
	return c, nil
}

// AddPlan offers plan p to class c under the class's dominance rule (offer)
// and charges the retained-path change to the simulated-memory budget. It
// reports whether p was retained. A scan is held as its fields, any other
// plan whole.
func (m *Memo) AddPlan(c *Class, p *plan.Plan) (bool, error) {
	x := path{JoinCand: cost.JoinCand{Op: p.Op, Cost: p.Cost, Rows: p.Rows, Order: p.Order}}
	if p.Op.IsScan() {
		x.rel = int32(p.Rel)
	} else {
		m.plans = append(m.plans, p)
		x.plan = int32(len(m.plans))
	}
	return m.add(c, &x)
}

// AddCand is AddPlan for a costed join candidate over paths of this memo,
// named by their slots as AppendInputs names them.
func (m *Memo) AddCand(c *Class, jc cost.JoinCand) (bool, error) {
	if m.Model == nil {
		return false, fmt.Errorf("memo: class %v has no cost model to build candidates", c.Set)
	}
	return m.add(c, &path{JoinCand: jc})
}

func (m *Memo) add(c *Class, x *path) (bool, error) {
	x.cls = c.h
	d, kept := m.offer(c, x)
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
	m.levels[c.Level].remove(int(c.seq))
	delete(m.classes, c.Set)
	n := int64(m.numPaths(c))
	m.Stats.ClassesAlive--
	m.Stats.PathsRetained -= n
	m.Stats.SimBytes -= SimClassBytes + n*SimPathBytes
	m.cPruned.Add(1)
	m.gAlive.Add(-1)
	m.gSim.Add(-(SimClassBytes + n*SimPathBytes))
}

// AppendLevel appends the alive classes created at leaf level k to dst, in
// creation order, and returns the extended slice.
func (m *Memo) AppendLevel(dst []*Class, k int) []*Class {
	if k < 0 || k >= len(m.levels) {
		return dst
	}
	for _, h := range m.levels[k].classes {
		if c := m.cls.at(h); !c.dead {
			dst = append(dst, c)
		}
	}
	return dst
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

// arena is an append-only sequence of T in chunks that double in size: an
// element never moves, so a *Class stays valid as the memo grows. Release
// empties it by setting n to 0 and keeps the chunks.
type arena[T any] struct {
	chunks [][]T
	n      int32
}

// firstChunk is the first chunk's length; chunk k holds firstChunk<<k
// elements.
const firstChunk = 16

// locate returns the chunk and offset of element i.
func locate(i int32) (k int, off uint32) {
	x := uint32(i) + firstChunk
	k = mathbits.Len32(x) - 5 // 5 = Len32(firstChunk)
	return k, x - firstChunk<<k
}

func (a *arena[T]) at(i int32) *T {
	k, off := locate(i)
	return &a.chunks[k][off]
}

// add appends an element and returns its index and address. The element is
// not zeroed: in a reused arena it holds an earlier memo's value, and every
// caller assigns the whole element.
func (a *arena[T]) add() (int32, *T) {
	i := a.n
	k, off := locate(i)
	if k == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, firstChunk<<k))
	}
	a.n++
	return i, &a.chunks[k][off]
}
