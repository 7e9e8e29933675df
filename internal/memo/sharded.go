package memo

import (
	"sort"
	"sync"
	"sync/atomic"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
)

// numShards is the stripe count of the Sharded staging table. 64 stripes
// keep the expected collision probability low for any plausible worker
// count while the whole shard array still fits in a few cache lines of
// mutex state.
const numShards = 64

// Sharded is a mutex-striped concurrent staging table for one enumeration
// level of a parallel run (dp.Options.Workers > 1). Workers publish
// candidate classes and plans into it while a level runs; at the level
// barrier the engine drains it — in canonical set order — into the real Memo.
//
// Staged classes retain by the same pathSet rule as memo classes, so the
// staged winners are a function of the candidate set alone: whatever
// interleaving the workers ran under, draining reproduces exactly the class
// contents a sequential run would have built. Staging keeps the Memo itself
// single-threaded — its budget accounting, level table and statistics never
// need a lock.
type Sharded struct {
	shards    [numShards]mapShard
	contended atomic.Int64
}

type mapShard struct {
	mu sync.Mutex
	m  map[bits.Set]*Staged
}

// NewSharded returns an empty staging table.
func NewSharded() *Sharded {
	s := &Sharded{}
	for i := range s.shards {
		s.shards[i].m = make(map[bits.Set]*Staged)
	}
	return s
}

// Staged is one candidate class accumulating in the staging table.
type Staged struct {
	// Set is the base relations the candidate class covers.
	Set bits.Set
	// Rows and Sel are the class's shared cardinality features, computed by
	// whichever worker first saw the set (canonical per set — see
	// cost.SetRows — so any worker computes the same values).
	Rows, Sel float64

	mu    sync.Mutex
	paths pathSet
}

// shardOf spreads sets across stripes with the set's word-mixing Fibonacci
// hash; the high bits select the shard.
func shardOf(set bits.Set) int {
	return int(set.Hash() >> 58) // 6 bits = numShards
}

// Get returns the staged class for set, creating it on first sight with the
// features callback (invoked under the shard lock, at most once per set).
// It reports whether this call created the class. Safe for concurrent use.
func (s *Sharded) Get(set bits.Set, features func() (rows, sel float64)) (*Staged, bool) {
	sh := &s.shards[shardOf(set)]
	s.lock(sh)
	if st := sh.m[set]; st != nil {
		sh.mu.Unlock()
		return st, false
	}
	rows, sel := features()
	st := &Staged{Set: set, Rows: rows, Sel: sel, paths: newPathSet(set)}
	sh.m[set] = st
	sh.mu.Unlock()
	return st, true
}

// lock acquires a shard's mutex, counting acquisitions that had to wait —
// the contention signal exported as obs.MParShardContended.
func (s *Sharded) lock(sh *mapShard) {
	if !sh.mu.TryLock() {
		s.contended.Add(1)
		sh.mu.Lock()
	}
}

// Offer folds join candidate c into the staged class under the same
// dominance rule as Memo.AddCand (pathSet.offer), unbuilt, and returns the
// retained-path delta for the caller's running simulated-memory estimate. m
// is the caller's cost model, which lays out the trees a cost tie compares.
// When the class retains c, Offer refreshes the caller's bar under the same
// lock. Safe for concurrent use.
func (st *Staged) Offer(c cost.JoinCand, m *cost.Model, bar *cost.Bar) int {
	return st.offer(path{cand: c}, m, bar)
}

func (st *Staged) offer(p path, m *cost.Model, bar *cost.Bar) int {
	st.mu.Lock()
	d, kept := st.paths.offer(p, m)
	if kept && bar != nil {
		st.paths.Bar(bar)
	}
	st.mu.Unlock()
	return d
}

// Bar is pathSet.Bar under the class mutex. Staged costs only fall, so the
// snapshot stays right to reject with after the mutex is released: another
// worker's offers can only make it admit candidates the class then drops.
// Safe for concurrent use.
func (st *Staged) Bar(b *cost.Bar) {
	st.mu.Lock()
	st.paths.Bar(b)
	st.mu.Unlock()
}

// Drain returns every staged class in canonical set order. Call only after
// all workers have stopped publishing (the level barrier).
func (s *Sharded) Drain() []*Staged {
	var out []*Staged
	for i := range s.shards {
		for _, st := range s.shards[i].m {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Set.Less(out[j].Set) })
	return out
}

// Contended returns the number of shard-lock acquisitions that had to wait.
func (s *Sharded) Contended() int64 { return s.contended.Load() }
