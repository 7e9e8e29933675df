// Package plancache caches optimization results keyed by canonical query
// fingerprint, so a serving deployment pays the (super-polynomially
// growing) join-enumeration cost once per distinct query shape instead of
// once per request.
//
// The cache is a sharded, size-bounded LRU with singleflight deduplication:
// N concurrent misses on one key trigger exactly one underlying
// optimization, with the other N−1 callers parked on the in-flight result.
// Keys compose three parts (see Key):
//
//   - the query fingerprint — query.Fingerprint(), a digest of the
//     canonical encoding that normalizes relation order, predicate order
//     and orientation, and filter constants, so syntactically different but
//     semantically identical queries share an entry;
//   - the technique namespace ("dp", "sdp", "idp2", "greedy") — each
//     optimizer's plans are cached independently, since a cached SDP plan
//     is not an answer to a DP request;
//   - the catalog version — catalog.Fingerprint(), a digest of the schema
//     statistics. A statistics refresh changes the version, so every stale
//     entry silently stops matching; Invalidate reclaims their memory
//     eagerly.
//
// The cache stores plans exactly as compute returned them. A fingerprint
// covers every equivalent spelling of a query, whose query-local relation
// indexes and order-class ids differ — so callers serving entries across
// spellings must have compute return plans in the canonical query frame
// and relabel each retrieved plan into the requester's frame
// (query.Canon + plan.Remap; see internal/server and sdpopt.OptimizeCached
// for the pattern).
//
// Errors are never cached: a failed optimization (budget abort,
// cancellation) is reported to every coalesced waiter of that flight and
// retried by the next caller. All counters are mirrored to an optional
// obs.Observer for /metrics exposure and kept locally for programmatic
// access (Counts).
package plancache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"sdpopt/internal/dp"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
)

// Key identifies one cache entry: what was optimized (Fingerprint), how
// (Technique), and against which statistics (CatalogVersion).
type Key struct {
	Fingerprint    string
	Technique      string
	CatalogVersion string
}

func (k Key) id() string {
	// \x00 cannot appear in any component (hex digests, technique names).
	return k.Technique + "\x00" + k.CatalogVersion + "\x00" + k.Fingerprint
}

// Source reports how a Do call was satisfied.
type Source int

const (
	// Miss ran the underlying optimization (and cached its result).
	Miss Source = iota
	// Hit was served from a stored entry.
	Hit
	// Dedup waited on another caller's in-flight optimization of the key.
	Dedup
)

func (s Source) String() string {
	switch s {
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	}
	return "miss"
}

// Options configures a cache.
type Options struct {
	// MaxEntries bounds the total cached plans across all shards
	// (default 1024). The bound is per shard (MaxEntries/Shards, min 1),
	// so a pathological key distribution can under-fill slightly but
	// never over-fill.
	MaxEntries int
	// Shards is the lock-striping factor (default 16). Lookups hash the
	// key to a shard; only that shard's mutex is taken.
	Shards int
	// Obs mirrors the cache counters into a metrics registry; nil keeps
	// telemetry local to Counts().
	Obs *obs.Observer
}

type entry struct {
	id      string
	version string
	plan    *plan.Plan
	stats   dp.Stats
	elem    *list.Element
}

// flight is one in-progress optimization; waiters block on done.
type flight struct {
	done chan struct{}
	p    *plan.Plan
	st   dp.Stats
	err  error
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
	flights map[string]*flight
}

// Cache is a sharded LRU plan cache with singleflight deduplication.
// The zero value is not usable; construct with New.
type Cache struct {
	shards   []*shard
	perShard int

	hits, misses, dedups    atomic.Int64
	evictions, invalidated  atomic.Int64
	entries                 atomic.Int64
	cHits, cMisses, cDedups *obs.Counter
	cEvict, cInval          *obs.Counter
	gEntries                *obs.Gauge
}

// New builds a cache from opts (zero-value opts give a 1024-entry,
// 16-shard cache with no telemetry).
func New(opts Options) *Cache {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 1024
	}
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	if opts.Shards > opts.MaxEntries {
		opts.Shards = opts.MaxEntries
	}
	per := opts.MaxEntries / opts.Shards
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]*shard, opts.Shards), perShard: per}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries: map[string]*entry{},
			lru:     list.New(),
			flights: map[string]*flight{},
		}
	}
	if o := opts.Obs; o != nil {
		c.cHits = o.Counter(obs.MCacheHits)
		c.cMisses = o.Counter(obs.MCacheMisses)
		c.cDedups = o.Counter(obs.MCacheDedup)
		c.cEvict = o.Counter(obs.MCacheEvictions)
		c.cInval = o.Counter(obs.MCacheInvalidated)
		c.gEntries = o.Gauge(obs.MCacheEntries)
	}
	return c
}

// fnv1a hashes the key id for shard selection.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (c *Cache) shard(id string) *shard {
	return c.shards[fnv1a(id)%uint64(len(c.shards))]
}

// Do returns the cached result for key, or computes, caches, and returns
// it. Concurrent Do calls on the same key while compute is running are
// coalesced: exactly one compute runs, the others wait and share its
// result (Source Dedup). The returned stats are those of the optimization
// that produced the plan; a Hit's stats therefore describe the original
// compute, not the (near-free) lookup. A compute error is propagated to
// every coalesced caller and nothing is cached.
func (c *Cache) Do(key Key, compute func() (*plan.Plan, dp.Stats, error)) (*plan.Plan, dp.Stats, Source, error) {
	return c.do(key, compute, nil)
}

// DoCtx is Do with request-scoped span tracing: when ctx carries a span
// (span.FromContext), the lookup appends a completed "cache.lookup" child
// recording the outcome, and a coalesced caller additionally gets a
// "cache.wait" child covering the time parked on the in-flight compute —
// the singleflight stampede made visible per request. With no span in ctx
// it is exactly Do.
func (c *Cache) DoCtx(ctx context.Context, key Key, compute func() (*plan.Plan, dp.Stats, error)) (*plan.Plan, dp.Stats, Source, error) {
	return c.do(key, compute, span.FromContext(ctx))
}

func (c *Cache) do(key Key, compute func() (*plan.Plan, dp.Stats, error), sp *span.Span) (*plan.Plan, dp.Stats, Source, error) {
	id := key.id()
	s := c.shard(id)
	lookupStart := time.Now()
	lookup := func(src Source) {
		if sp == nil {
			return
		}
		ls := sp.ChildAt("cache.lookup", lookupStart, time.Since(lookupStart))
		ls.SetAttr("source", src.String())
	}

	s.mu.Lock()
	if e := s.entries[id]; e != nil {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		c.hits.Add(1)
		c.cHits.Add(1)
		lookup(Hit)
		return e.plan, e.stats, Hit, nil
	}
	if f := s.flights[id]; f != nil {
		s.mu.Unlock()
		c.dedups.Add(1)
		c.cDedups.Add(1)
		lookup(Dedup)
		ws := sp.Child("cache.wait")
		<-f.done
		ws.FinishErr(f.err)
		return f.p, f.st, Dedup, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[id] = f
	s.mu.Unlock()

	c.misses.Add(1)
	c.cMisses.Add(1)
	lookup(Miss)
	computed := false
	defer func() {
		if !computed { // compute panicked: free the key and its waiters
			f.err = errComputePanicked
			s.mu.Lock()
			delete(s.flights, id)
			s.mu.Unlock()
			close(f.done)
		}
	}()
	f.p, f.st, f.err = compute()
	computed = true

	s.mu.Lock()
	delete(s.flights, id)
	if f.err == nil {
		e := &entry{id: id, version: key.CatalogVersion, plan: f.p, stats: f.st}
		e.elem = s.lru.PushFront(e)
		s.entries[id] = e
		c.gEntries.Set(c.entries.Add(1))
		for s.lru.Len() > c.perShard {
			oldest := s.lru.Back()
			c.removeLocked(s, oldest.Value.(*entry))
			c.evictions.Add(1)
			c.cEvict.Add(1)
		}
	}
	s.mu.Unlock()
	close(f.done)
	return f.p, f.st, Miss, f.err
}

// errComputePanicked is what coalesced waiters get when the compute they
// waited on panicked.
var errComputePanicked = errors.New("plancache: compute panicked")

// Get returns the cached plan and stats for key without computing,
// refreshing its LRU position on a hit.
func (c *Cache) Get(key Key) (*plan.Plan, dp.Stats, bool) {
	id := key.id()
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[id]
	if e == nil {
		return nil, dp.Stats{}, false
	}
	s.lru.MoveToFront(e.elem)
	return e.plan, e.stats, true
}

// removeLocked unlinks e from s; the shard mutex must be held.
func (c *Cache) removeLocked(s *shard, e *entry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.id)
	c.gEntries.Set(c.entries.Add(-1))
}

// Invalidate drops every entry whose catalog version differs from current,
// returning the number dropped. Version-stamped keys already guarantee
// stale entries can never be served; Invalidate additionally reclaims
// their memory at the moment the catalog changes instead of waiting for
// LRU pressure.
func (c *Cache) Invalidate(current string) int {
	dropped := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			if e.version != current {
				c.removeLocked(s, e)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	c.invalidated.Add(int64(dropped))
	c.cInval.Add(int64(dropped))
	return dropped
}

// Clear drops every entry.
func (c *Cache) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			c.removeLocked(s, e)
		}
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.entries.Load())
}

// Counts is a consistent-enough snapshot of the cache counters (each field
// is individually atomic).
type Counts struct {
	Hits, Misses, Dedups, Evictions, Invalidated, Entries int64
}

// HitRate returns hits/(hits+misses+dedups), or 0 with no traffic. Dedup
// waiters count toward the denominator but not as hits: they did not avoid
// the optimization's latency, only its duplication.
func (ct Counts) HitRate() float64 {
	total := ct.Hits + ct.Misses + ct.Dedups
	if total == 0 {
		return 0
	}
	return float64(ct.Hits) / float64(total)
}

// Counts snapshots the cache counters.
func (c *Cache) Counts() Counts {
	if c == nil {
		return Counts{}
	}
	return Counts{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Dedups:      c.dedups.Load(),
		Evictions:   c.evictions.Load(),
		Invalidated: c.invalidated.Load(),
		Entries:     c.entries.Load(),
	}
}
